package mpi

import "context"

// Context-carried observers: sweep helpers (hydee.RunExperiments) launch runs
// several calls away from the code that owns an event sink, so the sink
// rides the context instead of threading an Observer parameter through
// every signature — the same pattern tracing libraries use. RunContext
// attaches a context observer alongside Config.Observer; both see every
// event.

type ctxObserverKey struct{}

// ContextWithObserver returns a context carrying o. Every run started
// under the returned context (directly or through sweep helpers) streams
// its lifecycle events to o in addition to its own Config.Observer.
// Unlike a run's own observer, o may receive events of several concurrent
// runs interleaved; implementations must be concurrency-safe.
func ContextWithObserver(ctx context.Context, o Observer) context.Context {
	if o == nil {
		return ctx
	}
	if prev := observerFromContext(ctx); prev != nil {
		o = MultiObserver(prev, o)
	}
	return context.WithValue(ctx, ctxObserverKey{}, o)
}

// observerFromContext extracts the context observer, or nil.
func observerFromContext(ctx context.Context) Observer {
	o, _ := ctx.Value(ctxObserverKey{}).(Observer)
	return o
}
