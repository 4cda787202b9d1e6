package svc

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
)

// artifactCache is a keyed, bounded, single-flight LRU cache for expensive
// request-independent artifacts: compiled programs, recorded committed-block
// traces and predecoded op tables. Concurrent requests for the same key
// share one build; completed entries are reused in LRU order up to the
// capacity bound.
//
// Eviction is by entry count, not bytes: entries (traces especially) vary in
// size, but the service's working set is "programs under active sweep", for
// which a small count bound is the honest knob. An in-flight entry can be
// evicted by a burst of new keys; its waiters keep a direct pointer and
// still receive the value, the artifact just is not reused afterwards.
//
// Build failures are never cached: the failed entry is removed so a
// transient failure does not poison the key, waiters that joined the failed
// build retry it instead of inheriting the error, and only successful joins
// count as hits.
//
// Values backed by resources the garbage collector cannot reclaim (mmapped
// traces) implement refcounted; the cache holds one reference for as long as
// the entry is resident, every do() return hands the caller a reference of
// its own, and eviction only ever drops the cache's reference — the pages
// live until the last in-flight user releases.
type artifactCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element
	order   *list.List // front = most recently used

	hits, misses, evictions int64
}

type cacheEntry struct {
	key   string
	ready chan struct{} // closed once val/err are set
	val   any
	err   error
}

// refcounted is implemented by cache values whose lifetime must outlast
// their cache residency (a mapped trace must stay mapped while any replay
// walks it). tryRef takes a reference, failing only once the value has fully
// closed; unref drops one.
type refcounted interface {
	tryRef() bool
	unref()
}

// tryRefVal takes a reference on refcounted values; plain values (compiled
// programs, predecode tables — ordinary GC-managed heap) always succeed.
func tryRefVal(v any) bool {
	r, ok := v.(refcounted)
	return !ok || r.tryRef()
}

// unrefVal drops a reference taken by tryRefVal; a no-op for plain values.
func unrefVal(v any) {
	if r, ok := v.(refcounted); ok {
		r.unref()
	}
}

func newArtifactCache(capacity int) *artifactCache {
	if capacity < 1 {
		capacity = 1
	}
	return &artifactCache{
		cap:     capacity,
		entries: make(map[string]*list.Element),
		order:   list.New(),
	}
}

// do returns the cached value for key, building it with build on a miss.
// Exactly one caller builds a given key at a time; the rest block until the
// build completes. hit reports whether this call reused an existing entry
// (possibly waiting for an in-flight build).
//
// A waiter that joins an in-flight build only scores a hit if that build
// succeeds. When it fails, the waiter does not inherit the builder's error —
// the failure says nothing about whether a fresh build would succeed — it
// loops and retries the lookup, becoming the next builder (or waiting on
// one) now that the failed entry has been dropped. Only a caller's own build
// failure is returned to it.
//
// Every successful return carries a reference the caller owns (see
// refcounted): callers of keys that may cache refcounted values must
// unrefVal the value when they are done with it.
func (c *artifactCache) do(key string, build func() (any, error)) (val any, hit bool, err error) {
	for {
		c.mu.Lock()
		if el, ok := c.entries[key]; ok {
			c.order.MoveToFront(el)
			e := el.Value.(*cacheEntry)
			c.mu.Unlock()
			<-e.ready
			if e.err != nil {
				continue // joined a failed build: retry rather than inherit
			}
			if !tryRefVal(e.val) {
				// The value fully closed between eviction and this lookup (its
				// last in-flight user released). Drop the dead entry if it is
				// somehow still resident, then rebuild.
				c.mu.Lock()
				if cur, ok := c.entries[key]; ok && cur == el {
					c.order.Remove(el)
					delete(c.entries, key)
				}
				c.mu.Unlock()
				continue
			}
			c.mu.Lock()
			c.hits++
			c.mu.Unlock()
			return e.val, true, nil
		}
		e := &cacheEntry{key: key, ready: make(chan struct{})}
		el := c.order.PushFront(e)
		c.entries[key] = el
		c.misses++
		for c.order.Len() > c.cap {
			oldest := c.order.Back()
			c.order.Remove(oldest)
			old := oldest.Value.(*cacheEntry)
			delete(c.entries, old.key)
			c.evictions++
			c.releaseEvicted(old)
		}
		c.mu.Unlock()

		val, err := build()
		if err != nil {
			// Drop the failed entry before releasing waiters, so a retrying
			// waiter's next lookup cannot land on this entry again.
			c.mu.Lock()
			if cur, ok := c.entries[key]; ok && cur == el {
				c.order.Remove(el)
				delete(c.entries, key)
			}
			e.err = err
			close(e.ready)
			c.mu.Unlock()
			return nil, false, err
		}
		// Publish under the lock: the builder's reference (taken by the build
		// itself) becomes the cache's; the caller takes its own on top. If a
		// burst of new keys evicted this entry mid-build, the evictor saw an
		// unready entry and skipped it — the cache's reference is dropped
		// here instead, and only the caller's survives.
		c.mu.Lock()
		e.val = val
		tryRefVal(val) // cannot fail: the build's own reference is still held
		if cur, ok := c.entries[key]; !ok || cur != el {
			unrefVal(val)
		}
		close(e.ready)
		c.mu.Unlock()
		return val, false, nil
	}
}

// releaseEvicted drops the cache's reference on an evicted entry. Called
// under c.mu; ready-state reads are race-free because ready is only closed
// under the same lock. An unready (still building) entry is left alone — its
// builder detects the orphaning at publish time and drops the reference.
func (c *artifactCache) releaseEvicted(old *cacheEntry) {
	select {
	case <-old.ready:
		if old.err == nil {
			unrefVal(old.val)
		}
	default:
	}
}

// purge drops every resident entry through the eviction path, so the cache
// releases its references on mapped traces: in-flight users keep theirs, and
// the pages unmap once the last of them drains. Counters are untouched.
func (c *artifactCache) purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.order.Front(); el != nil; el = el.Next() {
		c.releaseEvicted(el.Value.(*cacheEntry))
	}
	c.order.Init()
	clear(c.entries)
}

// cacheCounters is a consistent snapshot of the cache's counters.
type cacheCounters struct {
	Hits, Misses, Evictions int64
	Entries                 int
}

func (c *artifactCache) counters() cacheCounters {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cacheCounters{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Entries: c.order.Len()}
}

// programKey derives the artifact key of a normalized ProgramSpec: a hash of
// its canonical JSON, so two requests describing the same program — source
// text, seed or workload+scale, ISA, enlargement parameters — collide onto
// one compiled artifact regardless of field order or aliases in the wire
// form (BuildConfig normalized those already).
func programKey(p ProgramSpec) string {
	blob, err := json.Marshal(p)
	if err != nil {
		// ProgramSpec contains only marshalable fields; this cannot happen.
		panic(fmt.Sprintf("svc: programKey: %v", err))
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:16])
}

// codegenStamp is the SHA-256 of testdata/program_images.txt, the file that
// pins every benchmark's program image under every backend. A store file
// carries its program, so a store kept across a compiler upgrade would serve
// programs the new compiler no longer produces. Any change to the compiler
// or a shaping pass changes those pins (TestProgramImages), and so this
// stamp (TestCodegenStamp), and with it every trace key: the old files are
// never looked up again, and the store goes cold once.
const codegenStamp = "bf1eee0b46579c071ceb463b95ec4d9d40bcf7d7ff6e8b74aae7e12d0a421138"

// traceKey derives the trace artifact key: the program plus the emulation
// budget (the committed stream depends on both, and nothing else), and the
// codegen stamp (the program a store file carries depends on the compiler).
func traceKey(progKey string, emuMaxOps int64) string {
	return fmt.Sprintf("%s/emu=%d/codegen=%s", progKey, emuMaxOps, codegenStamp)
}

// TraceKeyFor derives the persistent-store trace key a request resolves to,
// by normalizing it exactly as the job pipeline would (BuildConfig). Tools
// that pre-seed or inspect a store (svcbench's replica) use it to address
// the same file the service will touch.
func TraceKeyFor(req *SimRequest) (string, error) {
	plan, err := BuildConfig(req)
	if err != nil {
		return "", err
	}
	return traceKey(programKey(plan.Program), plan.EmuCfg.MaxOps), nil
}

// predecodeKey derives the predecoded-op-table artifact key: the program plus
// the effective issue width (the lane split depends on both, and nothing
// else — per-geometry cache-line splits are applied on copies downstream).
func predecodeKey(progKey string, issueWidth int) string {
	return fmt.Sprintf("%s/iw=%d", progKey, issueWidth)
}
