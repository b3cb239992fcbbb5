// Package icn implements the paper's novel interconnection-network
// model for model checking (§VII-A.1, Fig. 4): instead of any concrete
// topology, each virtual network is a pair of global FIFO buffers plus
// one input FIFO per endpoint. A sender picks either global buffer
// (nondeterministically in unordered mode, or per a static
// source/destination mapping in point-to-point-ordered mode); delivery
// pops a global-buffer head into its destination's input FIFO. The
// model checker's exhaustive exploration then manifests every possible
// queueing and reordering any real ICN could produce, while a static
// mapping restricted to one buffer per (src, dst) pair preserves
// point-to-point order.
package icn

import (
	"fmt"
	"strings"
)

// Message is a coherence message instance in flight. Name indexes the
// protocol's message-name table; Src, Req, and Dst are endpoint ids;
// Acks is the carried invalidation-ack count.
type Message struct {
	Name uint8
	Addr uint8
	Src  uint8
	Req  uint8
	Dst  uint8
	Acks int8
}

// MessageBytes is the encoded size of a Message: Name, Addr, Src, Req,
// Dst and Acks (biased by 128), one byte each, in that order. Every
// queue encodes as one length byte followed by that many records.
const MessageBytes = 6

// Config shapes a network.
type Config struct {
	NumVNs    int
	Endpoints int
	GlobalCap int // capacity of each global buffer
	LocalCap  int // capacity of each endpoint input FIFO
	// PointToPoint enables ordered mode: P2P[src][dst] fixes the
	// global buffer for each pair. Nil P2P with PointToPoint set is
	// invalid.
	PointToPoint bool
	P2P          [][]uint8
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.NumVNs < 1 {
		return fmt.Errorf("icn: need at least one VN, got %d", c.NumVNs)
	}
	if c.Endpoints < 2 {
		return fmt.Errorf("icn: need at least two endpoints, got %d", c.Endpoints)
	}
	if c.GlobalCap < 1 || c.LocalCap < 1 {
		return fmt.Errorf("icn: buffer capacities must be positive (global %d, local %d)",
			c.GlobalCap, c.LocalCap)
	}
	// Encode writes each queue length as a single byte, so any capacity
	// beyond 255 would silently corrupt encoded states.
	if c.GlobalCap > 255 || c.LocalCap > 255 {
		return fmt.Errorf("icn: buffer capacities beyond the byte-encoded limit of 255 (global %d, local %d)",
			c.GlobalCap, c.LocalCap)
	}
	if c.PointToPoint {
		if len(c.P2P) != c.Endpoints {
			return fmt.Errorf("icn: point-to-point mapping has %d rows, want %d",
				len(c.P2P), c.Endpoints)
		}
		for i, row := range c.P2P {
			if len(row) != c.Endpoints {
				return fmt.Errorf("icn: point-to-point row %d has %d entries, want %d",
					i, len(row), c.Endpoints)
			}
			for j, b := range row {
				if b > 1 {
					return fmt.Errorf("icn: point-to-point[%d][%d] = %d, want 0 or 1", i, j, b)
				}
			}
		}
	}
	return nil
}

// State is the decoded network contents.
// Global[vn][buf] and Local[endpoint][vn] are FIFOs, head first.
type State struct {
	Global [][2][]Message
	Local  [][][]Message
}

// NewState returns an empty network state for cfg.
func NewState(cfg Config) *State {
	s := &State{
		Global: make([][2][]Message, cfg.NumVNs),
		Local:  make([][][]Message, cfg.Endpoints),
	}
	for e := range s.Local {
		s.Local[e] = make([][]Message, cfg.NumVNs)
	}
	return s
}

// Clone deep-copies the state.
func (s *State) Clone() *State {
	c := &State{
		Global: make([][2][]Message, len(s.Global)),
		Local:  make([][][]Message, len(s.Local)),
	}
	for vn := range s.Global {
		for b := 0; b < 2; b++ {
			c.Global[vn][b] = append([]Message(nil), s.Global[vn][b]...)
		}
	}
	for e := range s.Local {
		c.Local[e] = make([][]Message, len(s.Local[e]))
		for vn := range s.Local[e] {
			c.Local[e][vn] = append([]Message(nil), s.Local[e][vn]...)
		}
	}
	return c
}

// bufferChoices are the three possible answers of BufferChoices:
// buffer 0 only, buffer 1 only, either.
var bufferChoices = [3][]int{{0}, {1}, {0, 1}}

// BufferChoices returns the global buffers a message from src to dst
// may be inserted into: both in unordered mode, exactly one in
// point-to-point mode. The result is shared; callers must not modify
// it.
func (cfg Config) BufferChoices(src, dst uint8) []int {
	if cfg.PointToPoint {
		return bufferChoices[cfg.P2P[src][dst]]
	}
	return bufferChoices[2]
}

// CanSend reports whether global buffer buf of vn has room.
func (s *State) CanSend(cfg Config, vn, buf int) bool {
	return len(s.Global[vn][buf]) < cfg.GlobalCap
}

// Send appends m to global buffer buf of vn; the caller must have
// checked CanSend.
func (s *State) Send(vn, buf int, m Message) {
	s.Global[vn][buf] = append(s.Global[vn][buf], m)
}

// CanDeliver reports whether global buffer buf of vn has a head whose
// destination input FIFO has room.
func (s *State) CanDeliver(cfg Config, vn, buf int) bool {
	q := s.Global[vn][buf]
	if len(q) == 0 {
		return false
	}
	return len(s.Local[q[0].Dst][vn]) < cfg.LocalCap
}

// Deliver moves the head of global buffer buf of vn to its
// destination's input FIFO; the caller must have checked CanDeliver.
// The pop reslices rather than copying the tail (see PopLocal).
func (s *State) Deliver(vn, buf int) Message {
	q := s.Global[vn][buf]
	m := q[0]
	s.Global[vn][buf] = q[1:]
	s.Local[m.Dst][vn] = append(s.Local[m.Dst][vn], m)
	return m
}

// Head returns the head of endpoint e's input FIFO for vn.
func (s *State) Head(e, vn int) (Message, bool) {
	q := s.Local[e][vn]
	if len(q) == 0 {
		return Message{}, false
	}
	return q[0], true
}

// PopLocal removes the head of endpoint e's input FIFO for vn.
//
// Pops reslice (q = q[1:]) instead of reallocating the tail — an O(1)
// operation in the model checker's hottest loop. This is safe because
// every State uniquely owns its queues' backing arrays: Clone and
// Decode always deep-copy, and nothing assigns a queue header across
// States, so an in-place append after a pop can never scribble on a
// sibling state. The popped head stays reachable until the queue's
// array is dropped, which is bounded by the (tiny, capped) queue
// length and the transient lifetime of decoded states.
func (s *State) PopLocal(e, vn int) Message {
	q := s.Local[e][vn]
	m := q[0]
	s.Local[e][vn] = q[1:]
	return m
}

// Empty reports whether no message is in flight anywhere.
func (s *State) Empty() bool {
	for vn := range s.Global {
		if len(s.Global[vn][0])+len(s.Global[vn][1]) > 0 {
			return false
		}
	}
	for e := range s.Local {
		for vn := range s.Local[e] {
			if len(s.Local[e][vn]) > 0 {
				return false
			}
		}
	}
	return true
}

// InFlight counts messages anywhere in the network.
func (s *State) InFlight() int {
	n := 0
	for vn := range s.Global {
		n += len(s.Global[vn][0]) + len(s.Global[vn][1])
	}
	for e := range s.Local {
		for vn := range s.Local[e] {
			n += len(s.Local[e][vn])
		}
	}
	return n
}

func appendMsg(dst []byte, m Message) []byte {
	return append(dst, m.Name, m.Addr, m.Src, m.Req, m.Dst, byte(int8ToByte(m.Acks)))
}

func int8ToByte(v int8) uint8 { return uint8(v) + 128 }

func byteToInt8(b uint8) int8 { return int8(b - 128) }

func decodeMsg(src []byte) Message {
	return Message{
		Name: src[0], Addr: src[1], Src: src[2], Req: src[3], Dst: src[4],
		Acks: byteToInt8(src[5]),
	}
}

// Encode appends a deterministic byte encoding of the network state.
func (s *State) Encode(dst []byte) []byte {
	for vn := range s.Global {
		for b := 0; b < 2; b++ {
			q := s.Global[vn][b]
			dst = append(dst, byte(len(q)))
			for _, m := range q {
				dst = appendMsg(dst, m)
			}
		}
	}
	for e := range s.Local {
		for vn := range s.Local[e] {
			q := s.Local[e][vn]
			dst = append(dst, byte(len(q)))
			for _, m := range q {
				dst = appendMsg(dst, m)
			}
		}
	}
	return dst
}

// Decode reads a state for cfg from src, returning the remaining
// bytes. It validates every queue length against both the remaining
// input and the configured capacity, so truncated or corrupt input
// yields an error instead of a panic or an impossible state.
func Decode(cfg Config, src []byte) (*State, []byte, error) {
	s := NewState(cfg)
	rest, err := DecodeInto(cfg, s, src)
	if err != nil {
		return nil, rest, err
	}
	return s, rest, nil
}

// DecodeInto decodes like Decode but fills dst, reusing its queues'
// backing arrays — the allocation-free path for scratch states that
// are decoded over and over (e.g. the canonicalizer's). dst must have
// cfg's shape (NewState or a previous DecodeInto) and must not share
// queue storage with any other State.
func DecodeInto(cfg Config, dst *State, src []byte) ([]byte, error) {
	readQueue := func(q []Message, capacity int) ([]Message, error) {
		if len(src) < 1 {
			return nil, fmt.Errorf("icn: truncated state: missing queue length")
		}
		n := int(src[0])
		src = src[1:]
		if n > capacity {
			return nil, fmt.Errorf("icn: queue length %d exceeds capacity %d", n, capacity)
		}
		if len(src) < n*MessageBytes {
			return nil, fmt.Errorf("icn: truncated state: queue needs %d bytes, %d left",
				n*MessageBytes, len(src))
		}
		q = q[:0]
		for i := 0; i < n; i++ {
			q = append(q, decodeMsg(src))
			src = src[MessageBytes:]
		}
		return q, nil
	}
	var err error
	for vn := 0; vn < cfg.NumVNs; vn++ {
		for b := 0; b < 2; b++ {
			if dst.Global[vn][b], err = readQueue(dst.Global[vn][b], cfg.GlobalCap); err != nil {
				return src, err
			}
		}
	}
	for e := 0; e < cfg.Endpoints; e++ {
		for vn := 0; vn < cfg.NumVNs; vn++ {
			if dst.Local[e][vn], err = readQueue(dst.Local[e][vn], cfg.LocalCap); err != nil {
				return src, err
			}
		}
	}
	return src, nil
}

// Format renders in-flight messages using a message-name table.
func (s *State) Format(names []string) string {
	var b strings.Builder
	one := func(m Message) string {
		return fmt.Sprintf("%s[a%d %d->%d req=%d acks=%d]",
			names[m.Name], m.Addr, m.Src, m.Dst, m.Req, m.Acks)
	}
	for vn := range s.Global {
		for buf := 0; buf < 2; buf++ {
			if len(s.Global[vn][buf]) == 0 {
				continue
			}
			fmt.Fprintf(&b, "  VN%d global%d:", vn, buf)
			for _, m := range s.Global[vn][buf] {
				b.WriteByte(' ')
				b.WriteString(one(m))
			}
			b.WriteByte('\n')
		}
	}
	for e := range s.Local {
		for vn := range s.Local[e] {
			if len(s.Local[e][vn]) == 0 {
				continue
			}
			fmt.Fprintf(&b, "  ep%d VN%d in:", e, vn)
			for _, m := range s.Local[e][vn] {
				b.WriteByte(' ')
				b.WriteString(one(m))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// UniformP2P builds a point-to-point mapping sending every (src, dst)
// pair to the same buffer choice function: variant 0 routes all pairs
// to buffer 0, variant 1 hashes by destination parity, variant 2 by
// source parity, variant 3 by (src+dst) parity. These are the
// representative static mappings used by the verification harness;
// the unordered mode already over-approximates all of them.
func UniformP2P(endpoints, variant int) [][]uint8 {
	p := make([][]uint8, endpoints)
	for s := range p {
		p[s] = make([]uint8, endpoints)
		for d := range p[s] {
			switch variant {
			case 1:
				p[s][d] = uint8(d % 2)
			case 2:
				p[s][d] = uint8(s % 2)
			case 3:
				p[s][d] = uint8((s + d) % 2)
			default:
				p[s][d] = 0
			}
		}
	}
	return p
}
