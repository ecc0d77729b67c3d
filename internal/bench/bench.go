// Package bench is the measurement harness reproducing the paper's
// evaluation (§6, Figure 6): per-operation Read and Write overheads of the
// active-file implementation strategies for block sizes {8, 32, 128, 512,
// 2048} across the three Figure 5 critical paths — (a) remote source,
// (b) local on-disk cache, (c) in-memory cache — plus the direct-access
// baseline the paper reports as indistinguishable from DLL-only.
package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/remote"
	"repro/internal/vfs"
)

// BlockSizes are the x-axis points of every Figure 6 panel.
var BlockSizes = []int{8, 32, 128, 512, 2048}

// DefaultOps matches the paper's "time 1000 calls of each".
const DefaultOps = 1000

// CachePath identifies a Figure 5 critical path / Figure 6 panel.
type CachePath int

// The three panels.
const (
	PathRemote CachePath = iota + 1 // (a) sentinel uses a remote source
	PathDisk                        // (b) sentinel uses a local on-disk cache
	PathMemory                      // (c) sentinel uses an in-memory cache
)

// String returns the panel letter and description.
func (p CachePath) String() string {
	switch p {
	case PathRemote:
		return "remote"
	case PathDisk:
		return "disk"
	case PathMemory:
		return "memory"
	default:
		return fmt.Sprintf("path(%d)", int(p))
	}
}

// cacheMode returns the manifest cache mode realizing the panel.
func (p CachePath) cacheMode() string {
	switch p {
	case PathRemote:
		return "none"
	case PathDisk:
		return "disk"
	case PathMemory:
		return "memory"
	default:
		return "none"
	}
}

// Op is the measured operation.
type Op int

// Measured operations.
const (
	OpRead Op = iota + 1
	OpWrite
)

// String returns "read" or "write".
func (o Op) String() string {
	if o == OpRead {
		return "read"
	}
	return "write"
}

// Config is one measurement cell.
type Config struct {
	Strategy  core.Strategy
	Path      CachePath
	Op        Op
	BlockSize int
	Ops       int
	// Program overrides the sentinel program; empty means "passthrough"
	// (the evaluation's null filter).
	Program string
	// Params are extra program parameters for ablation cells.
	Params map[string]string
}

// Result is the measured outcome of one cell.
type Result struct {
	Config
	Total time.Duration
}

// MicrosPerOp returns the per-operation cost in microseconds, the unit of
// Figure 6's y axes.
func (r Result) MicrosPerOp() float64 {
	if r.Ops == 0 {
		return 0
	}
	return float64(r.Total.Nanoseconds()) / float64(r.Ops) / 1e3
}

// Runner provisions the environment for measurement cells: a scratch
// directory for active files and a block file server as the remote source.
type Runner struct {
	dir    string
	server *remote.FileServer
	addr   string
	nextID int
	// lastPath is the manifest path of the most recent Setup, for cells that
	// reopen the same active file repeatedly (churn).
	lastPath string
}

// NewRunner starts the remote service and returns a ready runner. Close it
// when done.
func NewRunner(dir string) (*Runner, error) {
	server := remote.NewFileServer()
	addr, err := server.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return &Runner{dir: dir, server: server, addr: addr}, nil
}

// Close stops the remote service and retires any warm sentinels the churn
// cells left parked, so a finished run leaks no subprocesses.
func (r *Runner) Close() error {
	core.DrainSentinelPool()
	return r.server.Close()
}

// SetRemoteLatency injects a fixed delay into every remote-service
// operation, simulating a distant source for crossover ablations.
func (r *Runner) SetRemoteLatency(d time.Duration) { r.server.SetLatency(d) }

// Setup provisions the active file for one cell and returns an opened
// handle plus the content length. The returned cleanup closes the handle.
// Setup work (population, sentinel spawn) is outside the measured region,
// as in the paper, whose graphs time only the ReadFile/WriteFile calls.
func (r *Runner) Setup(cfg Config) (*core.Handle, int64, func(), error) {
	r.nextID++
	objName := fmt.Sprintf("bench-%d", r.nextID)
	path := filepath.Join(r.dir, fmt.Sprintf("bench-%d.af", r.nextID))

	size := int64(cfg.BlockSize) * int64(cfg.Ops)
	if size == 0 {
		size = int64(cfg.BlockSize)
	}
	content := make([]byte, size)
	for i := range content {
		content[i] = byte(i)
	}
	r.server.Put(objName, content)

	programName := cfg.Program
	if programName == "" {
		programName = "passthrough"
	}
	m := vfs.Manifest{
		Program: vfs.ProgramSpec{Name: programName},
		Cache:   cfg.Path.cacheMode(),
		Source:  vfs.SourceSpec{Kind: "tcp", Addr: r.addr, Path: objName},
		Params:  cfg.Params,
	}
	if err := vfs.Create(path, m); err != nil {
		return nil, 0, nil, err
	}
	r.lastPath = path

	h, err := core.Open(path, core.Options{Strategy: cfg.Strategy})
	if err != nil {
		return nil, 0, nil, err
	}
	cleanup := func() {
		h.Close()
		vfs.Remove(path)
	}
	return h, size, cleanup, nil
}

// Measure runs one cell and returns its result. It reproduces the paper's
// methodology: open once, then time cfg.Ops fixed-size block operations.
func (r *Runner) Measure(cfg Config) (Result, error) {
	if cfg.Ops == 0 {
		cfg.Ops = DefaultOps
	}
	h, size, cleanup, err := r.Setup(cfg)
	if err != nil {
		return Result{}, err
	}
	defer cleanup()

	buf := make([]byte, cfg.BlockSize)
	useStream := !cfg.Strategy.SupportsPositioning()

	start := time.Now()
	for i := 0; i < cfg.Ops; i++ {
		if cfg.Op == OpRead {
			if useStream {
				_, err = io.ReadFull(h, buf)
			} else {
				off := (int64(i) * int64(cfg.BlockSize)) % size
				_, err = h.ReadAt(buf, off)
			}
		} else {
			if useStream {
				_, err = h.Write(buf)
			} else {
				off := (int64(i) * int64(cfg.BlockSize)) % size
				_, err = h.WriteAt(buf, off)
			}
		}
		if err != nil {
			return Result{}, fmt.Errorf("%s op %d (%v/%v/%d): %w",
				cfg.Op, i, cfg.Strategy, cfg.Path, cfg.BlockSize, err)
		}
	}
	total := time.Since(start)
	return Result{Config: cfg, Total: total}, nil
}

// MeasureBaseline times direct access to the same storage tier with no
// sentinel — the paper's baseline, "indistinguishable from the DLL-only
// case".
func (r *Runner) MeasureBaseline(path CachePath, op Op, blockSize, ops int) (Result, error) {
	if ops == 0 {
		ops = DefaultOps
	}
	size := int64(blockSize) * int64(ops)
	content := make([]byte, size)
	buf := make([]byte, blockSize)

	type randomAccess interface {
		ReadAt(p []byte, off int64) (int, error)
		WriteAt(p []byte, off int64) (int, error)
	}
	var (
		store   randomAccess
		cleanup func()
	)
	switch path {
	case PathRemote:
		r.nextID++
		objName := fmt.Sprintf("baseline-%d", r.nextID)
		r.server.Put(objName, content)
		client, err := remote.Dial(r.addr, objName)
		if err != nil {
			return Result{}, err
		}
		store, cleanup = client, func() { client.Close() }
	case PathDisk:
		r.nextID++
		f, err := os.Create(filepath.Join(r.dir, fmt.Sprintf("baseline-%d.dat", r.nextID)))
		if err != nil {
			return Result{}, err
		}
		if _, err := f.Write(content); err != nil {
			f.Close()
			return Result{}, err
		}
		store, cleanup = f, func() { f.Close() }
	case PathMemory:
		store, cleanup = remote.NewMemSource(content), func() {}
	default:
		return Result{}, fmt.Errorf("bench: unknown path %v", path)
	}
	defer cleanup()

	var err error
	start := time.Now()
	for i := 0; i < ops; i++ {
		off := (int64(i) * int64(blockSize)) % size
		if op == OpRead {
			_, err = store.ReadAt(buf, off)
		} else {
			_, err = store.WriteAt(buf, off)
		}
		if err != nil {
			return Result{}, fmt.Errorf("baseline %s op %d: %w", op, i, err)
		}
	}
	total := time.Since(start)
	return Result{
		Config: Config{Path: path, Op: op, BlockSize: blockSize, Ops: ops},
		Total:  total,
	}, nil
}
