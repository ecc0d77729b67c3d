//go:build !linux

package shm

import "os"

// The transport needs mmap-shared anonymous files and eventfd doorbells;
// off Linux it is compiled out and every entry point reports
// ErrUnsupported, which core turns into a pipe fallback (recorded in the
// handle's carrier stats).

// Supported reports whether this platform can host the transport.
func Supported() bool { return false }

// Ring is unavailable on this platform; no value is ever constructed.
type Ring struct{}

func (r *Ring) Read(p []byte) (int, error)  { return 0, ErrUnsupported }
func (r *Ring) Write(p []byte) (int, error) { return 0, ErrUnsupported }
func (r *Ring) Discard(n int) (int, error)  { return 0, ErrUnsupported }
func (r *Ring) Close() error                { return nil }
func (r *Ring) Stats() Stats                { return Stats{} }
func (r *Ring) BeginFlush()                 {}
func (r *Ring) EndFlush()                   {}
func (r *Ring) SelfBuffered()               {}

// Segment is unavailable on this platform; no value is ever constructed.
type Segment struct{}

func New(cmdBytes, replyBytes int) (*Segment, error) { return nil, ErrUnsupported }

func Attach(seg *os.File, bells []*os.File) (*Segment, error) {
	seg.Close()
	for _, b := range bells {
		if b != nil {
			b.Close()
		}
	}
	return nil, ErrUnsupported
}

func (s *Segment) Cmd() *Ring             { return nil }
func (s *Segment) Reply() *Ring           { return nil }
func (s *Segment) Rings() []*Ring         { return nil }
func (s *Segment) Epoch() uint64          { return 0 }
func (s *Segment) AdvanceEpoch() uint64   { return 0 }
func (s *Segment) Closed() bool           { return true }
func (s *Segment) ChildFiles() []*os.File { return nil }
func (s *Segment) Close() error           { return nil }
