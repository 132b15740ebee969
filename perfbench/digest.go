package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
)

// digest is a run's deterministic output: for every cycle a hash of its
// inputs and a hash of its ops' digest lines, plus the first cycle's
// lines verbatim so a mismatch can name the op and the statistic that
// changed. Cycle c's inputs depend only on the seed and c, so runs of
// different lengths agree on the cycles they share.
type digest struct {
	cycles []cycleDigest
	first  []string
}

type cycleDigest struct{ inputs, outputs string }

// makeDigest digests whole cycles of ops, given each cycle's input
// hash and each op's digest line.
func makeDigest(inputs []string, cycleLen int, lines []string) digest {
	var d digest
	for c, from := 0, 0; from+cycleLen <= len(lines); c, from = c+1, from+cycleLen {
		h := sha256.New()
		for _, l := range lines[from : from+cycleLen] {
			fmt.Fprintln(h, l)
		}
		d.cycles = append(d.cycles, cycleDigest{inputs[c], hex.EncodeToString(h.Sum(nil))})
	}
	d.first = lines[:min(cycleLen, len(lines))]
	return d
}

// text renders the digest in the committed golden format.
func (d digest) text() string {
	var b strings.Builder
	for c, cd := range d.cycles {
		fmt.Fprintf(&b, "cycle %d inputs=%s outputs=%s\n", c, cd.inputs, cd.outputs)
	}
	for _, l := range d.first {
		fmt.Fprintf(&b, "op %s\n", l)
	}
	return b.String()
}

func parseDigest(text string) (digest, error) {
	var d digest
	for i, l := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if op, ok := strings.CutPrefix(l, "op "); ok {
			d.first = append(d.first, op)
			continue
		}
		var c int
		var cd cycleDigest
		if _, err := fmt.Sscanf(l, "cycle %d inputs=%s outputs=%s", &c, &cd.inputs, &cd.outputs); err != nil || c != len(d.cycles) {
			return digest{}, fmt.Errorf("golden line %d: malformed %q", i+1, l)
		}
		d.cycles = append(d.cycles, cd)
	}
	return d, nil
}

// diff describes the first difference between d and want over the
// cycles both hold, or returns "" when they agree. Differing inputs are
// reported first: they mean the workload changed, not the program.
func (d digest) diff(want digest) string {
	n := min(len(d.cycles), len(want.cycles))
	for c := 0; c < n; c++ {
		if d.cycles[c].inputs != want.cycles[c].inputs {
			return fmt.Sprintf("cycle %d: inputs differ (the generated workload changed)", c)
		}
	}
	for c := 0; c < n; c++ {
		if d.cycles[c].outputs == want.cycles[c].outputs {
			continue
		}
		if c == 0 {
			for i := range min(len(d.first), len(want.first)) {
				if d.first[i] != want.first[i] {
					return fmt.Sprintf("cycle 0 op %d:\n  want %s\n  got  %s", i, want.first[i], d.first[i])
				}
			}
		}
		return fmt.Sprintf("cycle %d: outputs differ", c)
	}
	return ""
}
