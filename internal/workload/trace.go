// Package workload defines the deterministic, seedable workload-trace
// format and its adversarial generators. A Trace is an open-loop arrival
// schedule: each event says *when* a client injects a message of *what
// size* into *which conversation*, independent of how the system is
// coping — the ATLAHS argument (PAPERS.md) is that exactly these
// application-centric schedules (heavy tails, flash crowds, incast) are
// where simulators diverge from reality, because a closed-loop workload
// politely slows down when the system saturates.
//
// Traces are replayed through the bench scale topology (see
// internal/bench/overload.go) and serialized through a versioned binary
// codec whose decoder is a fuzz target (FuzzTraceParse): traces may be
// generated off-line, stored, and replayed, so the parser must be hostile
// to malformed input.
package workload

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Event is one open-loop arrival.
type Event struct {
	// AtUs is the scheduled injection time, microseconds from trace
	// start. Events are ordered by AtUs (ties broken by Client).
	AtUs float64
	// Client is the injecting endpoint's index in the fleet.
	Client int
	// Size is the message payload size in bytes.
	Size int
	// Conv is the conversation (relay queue) the message belongs to.
	Conv uint32
}

// Trace is a named, replayable arrival schedule.
type Trace struct {
	Name   string
	Events []Event
}

// Codec limits: a decoder accepting untrusted bytes must bound every
// dimension before allocating.
const (
	traceMagic   = "ASHW"
	traceVersion = 1

	// MaxName bounds the trace-name length.
	MaxName = 255
	// MaxEvents bounds the event count one trace may carry.
	MaxEvents = 1 << 20
	// MaxClient bounds client indices.
	MaxClient = 1 << 20
	// MaxSize bounds one event's payload size.
	MaxSize = 64 << 10
	// MaxAtUs bounds event times (about 11.5 simulated days).
	MaxAtUs = 1e12
)

const eventBytes = 8 + 4 + 4 + 4 // AtUs bits, client, size, conv

// Duration reports the last event's time (0 for an empty trace).
func (t *Trace) Duration() float64 {
	if len(t.Events) == 0 {
		return 0
	}
	return t.Events[len(t.Events)-1].AtUs
}

// Encode serializes the trace:
//
//	"ASHW" | version u8 | nameLen u8 | name | count u32 |
//	count * (atUs f64-bits u64 | client u32 | size u32 | conv u32)
//
// all big-endian. Encode panics on traces that violate the codec limits
// (they are generator bugs, not data errors).
func (t *Trace) Encode() []byte {
	if err := t.validate(); err != nil {
		panic(fmt.Sprintf("workload: encoding invalid trace: %v", err))
	}
	b := make([]byte, 0, 4+1+1+len(t.Name)+4+len(t.Events)*eventBytes)
	b = append(b, traceMagic...)
	b = append(b, traceVersion, byte(len(t.Name)))
	b = append(b, t.Name...)
	b = binary.BigEndian.AppendUint32(b, uint32(len(t.Events)))
	for _, e := range t.Events {
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(e.AtUs))
		b = binary.BigEndian.AppendUint32(b, uint32(e.Client))
		b = binary.BigEndian.AppendUint32(b, uint32(e.Size))
		b = binary.BigEndian.AppendUint32(b, e.Conv)
	}
	return b
}

// Parse decodes an encoded trace, rejecting anything malformed: bad
// magic or version, oversized dimensions, non-finite or decreasing
// times, trailing garbage. Parse(Encode(t)) == t for every valid t.
func Parse(b []byte) (*Trace, error) {
	if len(b) < 4+1+1 {
		return nil, fmt.Errorf("workload: trace too short (%d bytes)", len(b))
	}
	if string(b[:4]) != traceMagic {
		return nil, fmt.Errorf("workload: bad magic %q", b[:4])
	}
	if b[4] != traceVersion {
		return nil, fmt.Errorf("workload: unsupported version %d", b[4])
	}
	nameLen := int(b[5])
	b = b[6:]
	if len(b) < nameLen+4 {
		return nil, fmt.Errorf("workload: truncated name/count")
	}
	name := string(b[:nameLen])
	count := binary.BigEndian.Uint32(b[nameLen : nameLen+4])
	b = b[nameLen+4:]
	if count > MaxEvents {
		return nil, fmt.Errorf("workload: %d events exceeds limit %d", count, MaxEvents)
	}
	if len(b) != int(count)*eventBytes {
		return nil, fmt.Errorf("workload: body is %d bytes, want %d", len(b), int(count)*eventBytes)
	}
	t := &Trace{Name: name}
	if count > 0 {
		t.Events = make([]Event, 0, count)
	}
	prev := -1.0
	for i := uint32(0); i < count; i++ {
		off := int(i) * eventBytes
		at := math.Float64frombits(binary.BigEndian.Uint64(b[off:]))
		client := binary.BigEndian.Uint32(b[off+8:])
		size := binary.BigEndian.Uint32(b[off+12:])
		conv := binary.BigEndian.Uint32(b[off+16:])
		if math.IsNaN(at) || at < 0 || at > MaxAtUs {
			return nil, fmt.Errorf("workload: event %d: bad time %v", i, at)
		}
		if at < prev {
			return nil, fmt.Errorf("workload: event %d: time %v before %v", i, at, prev)
		}
		if client >= MaxClient {
			return nil, fmt.Errorf("workload: event %d: client %d out of range", i, client)
		}
		if size == 0 || size > MaxSize {
			return nil, fmt.Errorf("workload: event %d: size %d out of range", i, size)
		}
		prev = at
		t.Events = append(t.Events, Event{AtUs: at, Client: int(client), Size: int(size), Conv: conv})
	}
	return t, nil
}

// validate applies the codec limits to an in-memory trace.
func (t *Trace) validate() error {
	if len(t.Name) > MaxName {
		return fmt.Errorf("name of %d bytes", len(t.Name))
	}
	if len(t.Events) > MaxEvents {
		return fmt.Errorf("%d events", len(t.Events))
	}
	prev := -1.0
	for i, e := range t.Events {
		switch {
		case math.IsNaN(e.AtUs) || e.AtUs < 0 || e.AtUs > MaxAtUs:
			return fmt.Errorf("event %d: bad time %v", i, e.AtUs)
		case e.AtUs < prev:
			return fmt.Errorf("event %d: time goes backwards", i)
		case e.Client < 0 || e.Client >= MaxClient:
			return fmt.Errorf("event %d: client %d", i, e.Client)
		case e.Size <= 0 || e.Size > MaxSize:
			return fmt.Errorf("event %d: size %d", i, e.Size)
		}
		prev = e.AtUs
	}
	return nil
}
