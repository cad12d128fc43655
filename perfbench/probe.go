package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	squall "repro"
)

// span is one timed call into a layer. Spans of one iteration share a
// run id; Parent is the id of the span whose interval caused this one
// (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Run    string `json:"run"`
}

// maxSpans bounds the in-memory span buffer; later spans are counted
// as dropped.
const maxSpans = 1 << 20

// recorder keeps the spans of a traced run in memory. A nil recorder
// records nothing, which is how untraced iterations run.
type recorder struct {
	base    time.Time
	next    atomic.Int64
	mu      sync.Mutex
	run     string
	spans   []span
	dropped int64
}

func newRecorder(base time.Time) *recorder { return &recorder{base: base} }

// setRun names the workload run the following spans belong to.
func (r *recorder) setRun(id string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.run = id
	r.mu.Unlock()
}

// openSpan is a started span; end records it.
type openSpan struct {
	r      *recorder
	id     int64
	parent int64
	name   string
	start  int64
}

func (r *recorder) start(name string, parent int64) openSpan {
	if r == nil {
		return openSpan{}
	}
	return openSpan{r: r, id: r.next.Add(1), parent: parent, name: name, start: int64(time.Since(r.base))}
}

// end records the span and returns its duration.
func (s openSpan) end() time.Duration {
	if s.r == nil {
		return 0
	}
	end := int64(time.Since(s.r.base))
	s.r.mu.Lock()
	if len(s.r.spans) < maxSpans {
		s.r.spans = append(s.r.spans, span{ID: s.id, Parent: s.parent, Name: s.name, Start: s.start, End: end, Run: s.r.run})
	} else {
		s.r.dropped++
	}
	s.r.mu.Unlock()
	return time.Duration(end - s.start)
}

// count returns the number of spans kept.
func (r *recorder) count() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// write stores the spans as JSON lines in path.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTime returns, per span name, the total duration minus the part
// of each span's interval that its child spans cover: where the time
// of each layer went. Children may overlap (a checkpoint runs beside
// sends), so their intervals are merged before they are subtracted.
func (r *recorder) selfTime() map[string]time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int64][]span)
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range r.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, until := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, until), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				until = hi
			}
		}
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// timedBackend is the storage probe: it wraps a checkpoint Backend,
// times every Write and Load as a span under the harness call that
// caused it, and counts the bytes written.
type timedBackend struct {
	inner  squall.Backend
	rec    *recorder
	parent *atomic.Int64 // id of the open Checkpoint or Restore span

	mu     sync.Mutex
	writes durations
	bytes  int64
	loads  time.Duration
}

func (b *timedBackend) Write(gen uint64, data []byte, deps []uint64) error {
	sp := b.rec.start("storage.Write", b.parent.Load())
	err := b.inner.Write(gen, data, deps)
	d := sp.end()
	b.mu.Lock()
	b.writes = append(b.writes, d)
	b.bytes += int64(len(data))
	b.mu.Unlock()
	return err
}

func (b *timedBackend) Generations() ([]uint64, error) { return b.inner.Generations() }

func (b *timedBackend) Load(gen uint64) ([]squall.Blob, error) {
	sp := b.rec.start("storage.Load", b.parent.Load())
	blobs, err := b.inner.Load(gen)
	d := sp.end()
	b.mu.Lock()
	b.loads += d
	b.mu.Unlock()
	return blobs, err
}

// SetKeep forwards the operator's retention setting, so the wrapped
// backend garbage-collects exactly as it would unwrapped.
func (b *timedBackend) SetKeep(k int) {
	if ks, ok := b.inner.(interface{ SetKeep(int) }); ok {
		ks.SetKeep(k)
	}
}

// Frame header layout of the worker link: magic "SQW", version, kind,
// reserved, payload length (LE u32), payload CRC (LE u32).
const (
	frameHeader   = 14
	frameKindAt   = 4
	frameLenAt    = 6
	numFrameKinds = 8
)

// frameKinds names the frame kinds the relay counts, by kind byte.
var frameKinds = [numFrameKinds]string{1: "hello", 2: "data", 3: "mig", 4: "ack", 5: "pairs", 6: "done", 7: "error"}

// relay is the transport probe: a TCP hop between the coordinator and
// one worker that forwards every frame unchanged and counts bytes and
// frames by kind in both directions.
type relay struct {
	ln     net.Listener
	target string
	rec    *recorder
	parent int64

	bytes  atomic.Int64
	frames [numFrameKinds]atomic.Int64
	wg     sync.WaitGroup
	errMu  sync.Mutex
	err    error
}

// newRelay listens on a loopback port and forwards the one connection
// it accepts to target.
func newRelay(target string, rec *recorder, parent int64) (*relay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &relay{ln: ln, target: target, rec: rec, parent: parent}
	r.wg.Add(1)
	go r.serve()
	return r, nil
}

func (r *relay) addr() string { return r.ln.Addr().String() }

func (r *relay) serve() {
	defer r.wg.Done()
	in, err := r.ln.Accept()
	r.ln.Close()
	if err != nil {
		if !errors.Is(err, net.ErrClosed) {
			r.fail(err)
		}
		return
	}
	out, err := net.Dial("tcp", r.target)
	if err != nil {
		in.Close()
		r.fail(err)
		return
	}
	sp := r.rec.start("transport.link", r.parent)
	var pumps sync.WaitGroup
	pumps.Add(2)
	go func() { defer pumps.Done(); r.pump(out, in) }()
	go func() { defer pumps.Done(); r.pump(in, out) }()
	pumps.Wait()
	in.Close()
	out.Close()
	sp.end()
}

// pump copies frames from src to dst until src ends, then half-closes
// dst so the peer sees the same end of stream.
func (r *relay) pump(dst, src net.Conn) {
	br := bufio.NewReaderSize(src, 1<<16)
	buf := make([]byte, frameHeader, 1<<16)
	for {
		buf = buf[:frameHeader]
		if _, err := io.ReadFull(br, buf); err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				r.fail(err)
			}
			break
		}
		n := int(binary.LittleEndian.Uint32(buf[frameLenAt:]))
		if k := int(buf[frameKindAt]); k < numFrameKinds {
			r.frames[k].Add(1)
		}
		if cap(buf) < frameHeader+n {
			buf = append(make([]byte, 0, frameHeader+n), buf...)
		}
		buf = buf[:frameHeader+n]
		if _, err := io.ReadFull(br, buf[frameHeader:]); err != nil {
			r.fail(err)
			break
		}
		if _, err := dst.Write(buf); err != nil {
			r.fail(err)
			break
		}
		r.bytes.Add(int64(len(buf)))
	}
	if tc, ok := dst.(*net.TCPConn); ok {
		_ = tc.CloseWrite() // the peer may already be gone; nothing to report
	}
}

func (r *relay) fail(err error) {
	r.errMu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.errMu.Unlock()
}

// close stops accepting, waits for the forwarding goroutines, and
// returns the first forwarding error.
func (r *relay) close() error {
	r.ln.Close()
	r.wg.Wait()
	r.errMu.Lock()
	defer r.errMu.Unlock()
	return r.err
}

// durations summarizes a set of call durations.
type durations []time.Duration

func (d durations) quantile(q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append(durations(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[int(q*float64(len(s)-1)+0.5)]
}

func (d durations) max() time.Duration { return d.quantile(1) }
