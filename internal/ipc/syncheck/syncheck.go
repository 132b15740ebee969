// Package syncheck decides whether the message-passing behaviour
// recorded in a trace is synchronizable: could the same send/receive
// pairs have occurred under rendezvous (synchronous) communication,
// where every send blocks until its receive? The criterion is the
// classic crown test from the theory of distributed computations (and
// the automata-based mailbox-synchronizability line of work): build the
// causal order over communication events — per-task program order plus
// a send-happens-before-its-receive edge for every matched message —
// then relate messages m ⊏ m' when send(m) causally precedes recv(m').
// The computation is synchronizable iff this relation is acyclic
// (a cycle of length ≥ 2 is a "crown": a set of messages that cannot
// all be flattened into atomic send-receive rendezvous points).
//
// The checker replays trace events in log order, which any actual
// execution guarantees is a linearization of causality, matching the
// k-th receive on a queue to the k-th send on it (both mailboxes and
// virtual links deliver FIFO per queue). A receive with no earlier
// send on its queue cannot come from a FIFO queue at all and is
// reported as an unmatched receive — a violation regardless of
// synchronizability. ISR injections (trace kind "interrupt" whose
// detail is a bare queue name) count as sends by the pseudo-task
// "isr"; dropped injections ("<queue> drop") transfer nothing.
package syncheck

import (
	"fmt"
	"strings"

	"emeralds/internal/trace"
)

// QueueStat summarizes one queue's traffic.
type QueueStat struct {
	Queue     string `json:"queue"`
	Sends     int    `json:"sends"`
	Recvs     int    `json:"recvs"`
	Unmatched int    `json:"unmatched"` // receives with no prior send (FIFO violation)
}

// Report is the checker's verdict over one trace.
type Report struct {
	Messages       int         `json:"messages"` // matched send/receive pairs
	Sends          int         `json:"sends"`
	Recvs          int         `json:"recvs"`
	Unmatched      int         `json:"unmatched"`
	Synchronizable bool        `json:"synchronizable"`
	Skipped        bool        `json:"skipped,omitempty"` // too many messages to check
	Crown          []string    `json:"crown,omitempty"`   // witness cycle, one message per line
	Queues         []QueueStat `json:"queues,omitempty"`
}

// OK reports whether the trace passed: synchronizable (or skipped) with
// no unmatched receives.
func (r *Report) OK() bool {
	return r.Unmatched == 0 && (r.Synchronizable || r.Skipped)
}

// String renders the report as a short human-readable block.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "syncheck: %d messages (%d sends, %d recvs, %d unmatched) over %d queues\n",
		r.Messages, r.Sends, r.Recvs, r.Unmatched, len(r.Queues))
	for _, q := range r.Queues {
		fmt.Fprintf(&b, "  %-12s sends=%-5d recvs=%-5d unmatched=%d\n", q.Queue, q.Sends, q.Recvs, q.Unmatched)
	}
	switch {
	case r.Skipped:
		fmt.Fprintf(&b, "  verdict: SKIPPED (more than %d messages)\n", MaxMessages)
	case r.Synchronizable && r.Unmatched == 0:
		b.WriteString("  verdict: synchronizable (crown-free)\n")
	case r.Synchronizable:
		b.WriteString("  verdict: NOT OK (unmatched receives)\n")
	default:
		b.WriteString("  verdict: NOT synchronizable, crown witness:\n")
		for _, m := range r.Crown {
			fmt.Fprintf(&b, "    %s\n", m)
		}
	}
	return b.String()
}

// MaxMessages bounds the crown check (it is quadratic in messages);
// larger traces report Skipped rather than stalling a campaign.
const MaxMessages = 4096

// message is one matched communication: indexes into the per-task
// event vector clocks of its send and receive.
type message struct {
	queue    string
	sendTask string
	recvTask string
	seq      int      // FIFO position on its queue
	sendVC   []uint32 // clock at the send event
	recvVC   []uint32 // clock at the receive event
	hasRecv  bool
}

// comm is one communication event of the trace, in log order.
type comm struct {
	send  bool
	isr   bool // an ISR injection (kept only for queues that are received from)
	queue string
	task  string
}

// Checker is Check in streaming form: Add takes the trace one event at
// a time, in log order, keeping only the communication events, and
// Finish runs the check. It lets a run be checked while it executes
// (trace.Log.Stream) without ever retaining the event log.
type Checker struct {
	comms   []comm
	taskIdx map[string]int // task name → vector-clock index
}

// NewChecker returns an empty streaming checker.
func NewChecker() *Checker { return &Checker{taskIdx: map[string]int{}} }

// Check analyzes the communication events of a trace log.
func Check(events []trace.Event) *Report {
	ck := NewChecker()
	for _, e := range events {
		ck.Add(e)
	}
	return ck.Finish()
}

// Add records the next event of the trace if it communicates. The
// trace's Task field is the task name; "isr" covers interrupt-context
// sends.
func (ck *Checker) Add(ev trace.Event) {
	switch ev.Kind {
	case trace.MsgSend, trace.VLinkSend:
		ck.add(comm{send: true, queue: ev.Detail, task: ev.Task})
	case trace.MsgRecv, trace.VLinkRecv:
		ck.add(comm{queue: ev.Detail, task: ev.Task})
	case trace.Interrupt:
		// ISR mailbox injection traces as an interrupt whose detail
		// is the bare queue name ("<queue> drop" delivered nothing,
		// "vector N" is not a queue).
		if ev.Detail != "" && !strings.ContainsRune(ev.Detail, ' ') {
			ck.add(comm{send: true, isr: true, queue: ev.Detail, task: ev.Task})
		}
	}
}

func (ck *Checker) add(c comm) {
	ck.comms = append(ck.comms, c)
	if _, ok := ck.taskIdx[c.task]; !ok {
		ck.taskIdx[c.task] = len(ck.taskIdx)
	}
}

// Finish checks the communication recorded so far. The whole trace is
// needed before matching starts: the task universe fixes the vector
// clocks' width, and an ISR send counts only if its queue is received
// from somewhere in the trace.
func (ck *Checker) Finish() *Report {
	rep := &Report{Synchronizable: true}
	comms, taskIdx := ck.comms, ck.taskIdx
	// Injection heuristics can misfire on traces where an interrupt
	// detail names something that is not a queue: only keep interrupt
	// sends whose queue also appears in a real send/recv event. (A
	// queue touched only by ISRs and never received from contributes
	// nothing to synchronizability anyway.)
	realQueue := map[string]bool{}
	for _, c := range comms {
		if !c.send {
			realQueue[c.queue] = true
		}
	}
	width := len(taskIdx)
	clocks := make(map[string][]uint32, width)
	pending := map[string][]*message{} // queue → sent, not yet received
	var msgs []*message
	qstats := map[string]*QueueStat{}
	var qorder []string
	stat := func(q string) *QueueStat {
		s := qstats[q]
		if s == nil {
			s = &QueueStat{Queue: q}
			qstats[q] = s
			qorder = append(qorder, q)
		}
		return s
	}

	tick := func(task string) []uint32 {
		vc := clocks[task]
		if vc == nil {
			vc = make([]uint32, width)
			clocks[task] = vc
		}
		vc[taskIdx[task]]++
		return vc
	}
	join := func(dst, src []uint32) {
		for i, v := range src {
			if v > dst[i] {
				dst[i] = v
			}
		}
	}

	for _, c := range comms {
		if c.isr && !realQueue[c.queue] {
			continue
		}
		s := stat(c.queue)
		if c.send {
			s.Sends++
			rep.Sends++
			vc := tick(c.task)
			m := &message{queue: c.queue, sendTask: c.task, seq: s.Sends,
				sendVC: append([]uint32(nil), vc...)}
			pending[c.queue] = append(pending[c.queue], m)
			msgs = append(msgs, m)
		} else {
			s.Recvs++
			rep.Recvs++
			q := pending[c.queue]
			if len(q) == 0 {
				s.Unmatched++
				rep.Unmatched++
				tick(c.task)
				continue
			}
			m := q[0]
			pending[c.queue] = q[1:]
			// Receive inherits the send's causal past before ticking.
			vc := clocks[c.task]
			if vc == nil {
				vc = make([]uint32, width)
				clocks[c.task] = vc
			}
			join(vc, m.sendVC)
			vc = tick(c.task)
			m.recvTask = c.task
			m.recvVC = append([]uint32(nil), vc...)
			m.hasRecv = true
		}
	}

	for _, q := range qorder {
		rep.Queues = append(rep.Queues, *qstats[q])
	}

	matched := 0
	for _, m := range msgs {
		if m.hasRecv {
			matched++
		}
	}
	rep.Messages = matched
	if matched > MaxMessages {
		rep.Skipped = true
		return rep
	}

	// Crown detection: edge m → m' iff send(m) ⩽ recv(m') causally and
	// m ≠ m'. Only matched messages participate (an unreceived send has
	// no recv event to precede).
	var nodes []*message
	for _, m := range msgs {
		if m.hasRecv {
			nodes = append(nodes, m)
		}
	}
	n := len(nodes)
	leq := func(a, b []uint32) bool {
		for i := range a {
			if a[i] > b[i] {
				return false
			}
		}
		return true
	}
	adj := func(i, j int) bool {
		return i != j && leq(nodes[i].sendVC, nodes[j].recvVC)
	}
	// Iterative DFS with colors; a back edge is a crown.
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make([]uint8, n)
	parent := make([]int, n)
	for start := 0; start < n && rep.Synchronizable; start++ {
		if color[start] != white {
			continue
		}
		stack := []int{start}
		parent[start] = -1
		for len(stack) > 0 && rep.Synchronizable {
			i := stack[len(stack)-1]
			if color[i] == white {
				color[i] = grey
			} else if color[i] == grey {
				color[i] = black
				stack = stack[:len(stack)-1]
				continue
			} else {
				stack = stack[:len(stack)-1]
				continue
			}
			for j := 0; j < n; j++ {
				if !adj(i, j) {
					continue
				}
				switch color[j] {
				case white:
					parent[j] = i
					stack = append(stack, j)
				case grey:
					// Crown found: walk parents from i back to j.
					rep.Synchronizable = false
					cycle := []int{j}
					for v := i; v != j && v != -1; v = parent[v] {
						cycle = append(cycle, v)
					}
					for x := len(cycle) - 1; x >= 0; x-- {
						m := nodes[cycle[x]]
						rep.Crown = append(rep.Crown, fmt.Sprintf(
							"%s→%s via %s (msg #%d)", m.sendTask, m.recvTask, m.queue, m.seq))
					}
				}
				if !rep.Synchronizable {
					break
				}
			}
		}
	}
	return rep
}

// CheckRaw parses trace JSON (a raw log or a Perfetto export with an
// embedded raw log) and checks it.
func CheckRaw(data []byte) (*Report, error) {
	events, _, err := trace.ParseJSON(data)
	if err != nil {
		return nil, err
	}
	return Check(events), nil
}
