package layers

import (
	"errors"
	"fmt"
	"os"
	"time"

	"bufferqoe/internal/engine"
	"bufferqoe/internal/store"
)

func probeSpec(buffer int) engine.CellSpec {
	return engine.CellSpec{
		Testbed: "access", Scenario: "short-few", Direction: "down", Buffer: buffer,
		Media: "voip", Seed: 42, Duration: 30 * time.Second, Warmup: 5 * time.Second, Reps: 3,
	}
}

// engineProbes times the cell engine's own work: rendering a spec's
// cache key, answering a cached cell, and dispatching a cell that
// costs nothing to compute (key, cache insert, worker slot, seed).
func engineProbes(s *prober) {
	spec := probeSpec(64)
	var n int
	s.put("engine.key_ns", s.perOp(func() { n += len(spec.Key()) }), "ns")

	e := engine.New(1)
	noop := func(engine.CellSpec, uint64, engine.Scratch) any { return 1.0 }
	e.Do(spec, noop)
	s.put("engine.hit_ns", s.perOp(func() { e.Do(spec, noop) }), "ns")

	buffer := 1000
	s.put("engine.miss_dispatch_us", s.perOp(func() {
		buffer++
		e.Do(probeSpec(buffer), noop)
		if buffer%4096 == 0 {
			e.ResetCache() // keep the cache map at a sweep's size
		}
	})/1e3, "us")
	_ = n
}

// blobCodec stores byte slices as they are: the store probe measures
// the store, not the cell codec.
type blobCodec struct{}

func (blobCodec) Encode(v any) ([]byte, bool) { b, ok := v.([]byte); return b, ok }
func (blobCodec) Decode(data []byte) (any, error) {
	return append([]byte(nil), data...), nil
}

// storeEntries is the directory size the store probe works on.
const storeEntries = 1000

// storeProbes times the persistent store on a 1000-entry directory
// of cell-sized (200-byte) values: a put through to disk (the write
// is asynchronous, so the figure is the flush divided by the count),
// opening the directory, a hit and a miss.
func storeProbes(s *prober, tmpDir string) error {
	dir, err := os.MkdirTemp(tmpDir, "store-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	keys := make([]string, 2*storeEntries) // the second half is never stored
	for i := range keys {
		keys[i] = probeSpec(i).Key()
	}
	value := make([]byte, 200)

	st, err := store.Open(dir, "probe", blobCodec{})
	if err != nil {
		return err
	}
	t0 := time.Now()
	for i := 0; i < storeEntries; i++ {
		if !st.Put(keys[i], value) {
			return fmt.Errorf("store probe: put %d refused", i)
		}
	}
	if err := st.Close(); err != nil {
		return err
	}
	s.put("store.put_us", float64(time.Since(t0))/1e3/storeEntries, "us")

	t0 = time.Now()
	st, err = store.Open(dir, "probe", blobCodec{})
	if err != nil {
		return err
	}
	defer st.Close()
	s.put("store.open_ms", float64(time.Since(t0))/1e6, "ms")
	if st.Stats().Entries != storeEntries {
		return errors.New("store probe: reopened store lost entries")
	}

	i := 0
	s.put("store.get_us", s.perOp(func() {
		st.Get(keys[i%storeEntries])
		i++
	})/1e3, "us")
	s.put("store.miss_us", s.perOp(func() {
		st.Get(keys[storeEntries+i%storeEntries])
		i++
	})/1e3, "us")
	if st.Stats().Hits == 0 || st.Stats().Misses == 0 {
		return errors.New("store probe: gets did not hit and miss as set up")
	}
	return nil
}
