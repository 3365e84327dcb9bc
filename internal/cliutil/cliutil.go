// Package cliutil holds the flag-handling helpers shared by the cabt
// command-line front-ends, so cabt-farm, cabt-soc and c6xrun cannot
// drift apart in how they open the persistent translation store or
// select the host-execution engine.
package cliutil

import (
	"repro/internal/platform"
	"repro/internal/simfarm"
	"repro/internal/simfarm/store"
)

// OpenTranslationCache opens the content-addressed store at dir (with
// an optional LRU byte budget) and returns a translation cache backed
// by it. An empty dir returns (nil, nil): the caller's farm falls back
// to its private in-memory cache.
func OpenTranslationCache(dir string, budget int64) (*simfarm.TranslationCache, error) {
	if dir == "" {
		return nil, nil
	}
	st, err := store.Open(dir, store.Options{MaxBytes: budget})
	if err != nil {
		return nil, err
	}
	return simfarm.NewPersistentTranslationCache(st), nil
}

// Engine maps the front-ends' -interp and -nofuse flags to the platform
// engine. -interp wins: the interpreter never fuses.
func Engine(interp, nofuse bool) platform.Engine {
	switch {
	case interp:
		return platform.EngineInterp
	case nofuse:
		return platform.EngineCompiledNoFuse
	}
	return platform.EngineCompiled
}
