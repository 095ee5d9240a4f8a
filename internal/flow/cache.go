// Window dedup cache integration: the glue between the tiled flow and
// internal/wcache. The flow computes each eligible tile's canonical
// content key (config fingerprint + window raster + window-local owning
// spans + core geometry), answers hits by translating the cached
// window-local shots into place, and stores every freshly computed
// window for its twins. The cache changes wall time, never bytes: a
// cached run's shots, bands, and checkpoint journal are byte-identical
// to an uncached one, which is what TestCacheDeterminism pins.

package flow

import (
	"cfaopc/internal/grid"
	"cfaopc/internal/wcache"
)

// cacheEligible reports whether tile j may interact with the cache at
// all. Tiles carrying an injected fault script are excluded in both
// directions: serving one from a twin would skip its scripted failure,
// and storing one would leak a fault-shaped result to clean twins.
func (env *runEnv) cacheEligible(j tileJob) bool {
	return env.cfg.Cache != nil && !j.skip && len(env.cfg.Faults[j.index]) == 0
}

// windowKey builds tile j's canonical cache key over the rasterized
// target. The prefix is the run's config fingerprint — the same
// machinery that binds checkpoint journals, minus the layout terms, so
// identical windows collide across layouts and across runs.
func (env *runEnv) windowKey(j tileJob, target *grid.Real) wcache.Key {
	ox := j.cx - env.cfg.HaloPx
	oy := j.cy - env.cfg.HaloPx
	ls := env.ix.WindowSpans(ox, oy, j.window, j.window)
	spans := make([]wcache.Span, len(ls))
	for i, s := range ls {
		spans[i] = wcache.Span(s)
	}
	return wcache.WindowKey(env.keyPrefix, wcache.WindowDesc{
		W: target.W, H: target.H, Raster: target.Data, Spans: spans,
		CoreX: env.cfg.HaloPx, CoreY: env.cfg.HaloPx, CoreW: j.core, CoreH: j.core,
	})
}

// tryCache attempts to serve tile j from the cache. It returns true
// when the tile is fully answered: the cached window-local shots are
// translated to full-grid coordinates and ownership-filtered exactly
// like a fresh optimization's would be, and the stat inherits the
// twin's attempt record (path, attempts, iters, loss) so run-level
// counters stay self-consistent. On a miss (or an eligibility bypass)
// the computed key is left on the stat so the eventual result can be
// stored. A tile with a pending partial-resume snapshot is never served
// from cache — its contract is to replay the journaled trajectory.
func (env *runEnv) tryCache(j tileJob, target *grid.Real, out *tileOut) bool {
	if !env.cacheEligible(j) {
		return false
	}
	key := env.windowKey(j, target)
	out.stat.CacheKey = string(key)
	if _, resuming := env.partials[j.index]; resuming {
		env.cacheMisses.Add(1)
		return false
	}
	e, ok := env.cfg.Cache.Get(key)
	if !ok {
		env.cacheMisses.Add(1)
		return false
	}
	env.cacheHits.Add(1)
	ox := j.cx - env.cfg.HaloPx
	oy := j.cy - env.cfg.HaloPx
	out.shots = ownedShots(e.Shots, ox, oy, j.cx, j.cy, j.core)
	out.stat.CacheHit = true
	out.stat.Path = e.Path
	out.stat.Attempts = e.Attempts
	out.stat.Iters = e.Iters
	out.stat.LastLoss = e.LastLoss
	out.stat.Shots = len(out.shots)
	return true
}

// storeCache publishes a freshly computed tile for its twins: the raw
// window-local shot list (pre-ownership-filter, so twins with any core
// placement can re-filter) plus the attempt record. Only real results
// go in — PathEmpty is never cached, so a degraded tile can't infect a
// twin — and only tiles whose key was computed by tryCache (faulted and
// skip tiles never got one).
func (env *runEnv) storeCache(j tileJob, out *tileOut) {
	if env.cfg.Cache == nil || out.stat.CacheKey == "" || out.stat.CacheHit {
		return
	}
	if out.stat.Path != PathPrimary && out.stat.Path != PathFallback {
		return
	}
	env.cfg.Cache.Put(wcache.Key(out.stat.CacheKey), &wcache.Entry{
		Shots:    out.raw,
		Path:     out.stat.Path,
		Attempts: out.stat.Attempts,
		Iters:    out.stat.Iters,
		LastLoss: out.stat.LastLoss,
	})
}
