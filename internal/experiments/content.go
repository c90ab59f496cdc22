package experiments

import (
	"sync"
	"time"

	"bufferqoe/internal/telemetry"
	"bufferqoe/internal/video"
	"bufferqoe/internal/voip"
)

// contentCap bounds the reference media a session keeps resident. A
// recording is held as its 400-byte activity mask, so the bound is
// set by rendered clips: one round of the paper's access grid holds
// 9 seeds x 6 masks plus one clip (1.2 MB at SD, the default 4 s), a
// grid's working set fits many times over, and whatever earlier grids
// left behind is evicted instead of pinned.
const contentCap = 32 << 20

// contentKey names one piece of reference media and is everything its
// bytes depend on: a speech recording's activity mask is a pure
// function of (cell seed, index), a rendered clip of (clip, profile,
// length).
type contentKey struct {
	video bool
	// Speech: recording index of the seed's 20-sample reference set.
	seed  uint64
	index int
	// Video.
	clip    video.Clip
	profile video.Profile
	seconds int
}

// build synthesizes the content the key names and reports its size.
func (k contentKey) build() (any, int64) {
	if k.video {
		src := video.NewSource(k.clip, k.profile, k.seconds)
		return src, int64(src.Frames() * k.profile.W * k.profile.H)
	}
	mask := voip.Activity(k.seed, k.index)
	return mask, int64(len(mask))
}

// contentEntry is one cache slot. once makes the build single-flight:
// the first asker synthesizes, concurrent askers wait for its value.
type contentEntry struct {
	once sync.Once
	val  any
	size int64  // 0 until built; guarded by contentCache.mu
	used uint64 // last-use tick; guarded by contentCache.mu
}

// contentCache is a session's reference media, shared by all of its
// workers: built lazily, once per key, and bounded — an insert that
// takes the resident bytes past contentCap evicts the least recently
// used entries, so the cache never grows with the number of distinct
// seeds a long-lived session has seen. Entries are immutable and only
// ever read, so a hit, a rebuild after eviction and a cell that still
// holds an evicted value are all bit-identical.
type contentCache struct {
	mu      sync.Mutex
	entries map[contentKey]*contentEntry
	bytes   int64
	tick    uint64
}

func newContentCache() *contentCache {
	return &contentCache{entries: map[contentKey]*contentEntry{}}
}

// get returns the content for k, building it if no worker has yet.
// The cell's use is tallied into use (for its trace record) and, with
// a collector attached, into the session-wide counters.
func (c *contentCache) get(k contentKey, col *telemetry.Collector, use *telemetry.ContentUse) any {
	c.mu.Lock()
	e, hit := c.entries[k]
	if !hit {
		e = &contentEntry{}
		c.entries[k] = e
	}
	c.tick++
	e.used = c.tick
	c.mu.Unlock()
	if hit {
		use.Hits++
		if col != nil {
			col.ContentHits.Inc()
		}
	}
	e.once.Do(func() {
		var start time.Time
		if col != nil {
			start = time.Now()
		}
		val, size := k.build()
		e.val = val
		c.mu.Lock()
		e.size = size
		c.bytes += size
		evicted := c.evict()
		resident := c.bytes
		c.mu.Unlock()
		use.Synthesized++
		if col != nil {
			use.SynthTime += time.Since(start)
			col.ContentSynthesized.Inc()
			col.ContentEvicted.Add(uint64(evicted))
			col.ContentBytes.Set(resident)
		}
	})
	return e.val
}

// evict drops least-recently-used built entries until the resident
// bytes fit contentCap, and returns how many it dropped. Entries still
// being built have no size yet and stay (evicting one would only lose
// its single-flight); an entry larger than the cap evicts itself last
// and is simply handed to its asker unretained. The scan is linear:
// what a grid keeps resident is tens of entries.
func (c *contentCache) evict() int {
	n := 0
	for c.bytes > contentCap {
		var lruKey contentKey
		var lru *contentEntry
		for k, e := range c.entries {
			if e.size > 0 && (lru == nil || e.used < lru.used) {
				lruKey, lru = k, e
			}
		}
		delete(c.entries, lruKey)
		c.bytes -= lru.size
		n++
	}
	return n
}

// resident returns the bytes of built content the cache holds.
func (c *contentCache) resident() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}
