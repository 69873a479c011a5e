package solve

// RetiredFrontier is the type of the warm-start state the engine solver
// used to export and resume from. Warm starts are gone: a cold engine solve
// is cheaper than a resumed one, so every solve runs cold. A handful of
// names the served-path benchmark in perfbench/ still compiles against stay
// as inert stand-ins until that benchmark stops reading them:
//
//   - Options.Resume is accepted and ignored;
//   - Result.Frontier is always nil, and Result.Resumed always false;
//   - Counters.MemoHits is always 0;
//   - Session.Warm returns nil and counts nothing, and Session.StoreWarm
//     does nothing;
//   - SessionStats.WarmHits and SessionStats.WarmMisses are always 0.
//
// No value of this type is ever created by the package.
type RetiredFrontier struct{}

// MemSize reports the retained bytes of the frontier: none.
func (*RetiredFrontier) MemSize() int64 { return 0 }

// Warm returns nil and changes no counter (see RetiredFrontier).
func (*Session) Warm(fp string) *RetiredFrontier { return nil }

// StoreWarm does nothing (see RetiredFrontier).
func (*Session) StoreWarm(fp string, f *RetiredFrontier) {}
