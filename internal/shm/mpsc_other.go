//go:build !linux

package shm

import (
	"io"
	"os"
)

// The MPSC lane plane compiles out with the rest of the transport; every
// entry point reports ErrUnsupported so core falls back to per-session
// conduits (recorded in the handle's carrier stats).

const (
	// MaxLanes matches the Linux lane-table bound so manifest validation
	// behaves identically across platforms.
	MaxLanes = 256

	DefaultMPSCCmdBytes   = 4 << 20
	DefaultMPSCReplyBytes = 8 << 20
)

// RecordKind tags one record's stream; see the Linux implementation.
type RecordKind uint8

const (
	RecordFrame RecordKind = 0
	RecordData  RecordKind = 1
	RecordEOS   RecordKind = 2
)

// MPSCQueue is unavailable on this platform; no value is ever constructed.
type MPSCQueue struct{}

func (q *MPSCQueue) LaneProducers(lane uint16) (frames, data *Producer) { return nil, nil }
func (q *MPSCQueue) Producer(lane uint16, kind RecordKind) *Producer    { return nil }
func (q *MPSCQueue) SendEOS(lane uint16) error                          { return ErrUnsupported }
func (q *MPSCQueue) Stats() Stats                                       { return Stats{} }
func (q *MPSCQueue) Drain(func(lane uint16, kind RecordKind, payload []byte)) error {
	return io.EOF
}

// Producer is unavailable on this platform; no value is ever constructed.
type Producer struct{}

func (p *Producer) Write(b []byte) (int, error) { return 0, ErrUnsupported }
func (p *Producer) BeginFlush()                 {}
func (p *Producer) EndFlush()                   {}

// MPSCSegment is unavailable on this platform; no value is ever constructed.
type MPSCSegment struct{}

func NewMPSC(lanes, cmdBytes, replyBytes int) (*MPSCSegment, error) { return nil, ErrUnsupported }

func AttachMPSC(seg *os.File, bells []*os.File) (*MPSCSegment, error) {
	seg.Close()
	for _, b := range bells {
		if b != nil {
			b.Close()
		}
	}
	return nil, ErrUnsupported
}

func (s *MPSCSegment) Cmd() *MPSCQueue                     { return nil }
func (s *MPSCSegment) Reply() *MPSCQueue                   { return nil }
func (s *MPSCSegment) Lanes() int                          { return 0 }
func (s *MPSCSegment) Epoch() uint64                       { return 0 }
func (s *MPSCSegment) AdvanceEpoch() uint64                { return 0 }
func (s *MPSCSegment) Closed() bool                        { return true }
func (s *MPSCSegment) ChildFiles() []*os.File              { return nil }
func (s *MPSCSegment) ClaimLane() (uint16, bool)           { return 0, false }
func (s *MPSCSegment) ReleaseLane(lane uint16)             {}
func (s *MPSCSegment) QuiesceLane(lane uint16)             {}
func (s *MPSCSegment) LaneCounts() (claimed, draining int) { return 0, 0 }
func (s *MPSCSegment) Close() error                        { return nil }
