// Package lockdiscipline_det seeds *Locked discipline violations. The
// analyzer runs in every package; the _det suffix just keeps the
// testdata layout uniform.
package lockdiscipline_det

import "sync"

type box struct {
	mu  sync.Mutex
	rw  sync.RWMutex
	val int
}

// selfDeadlock acquires the receiver's own mutex inside a *Locked
// method: with the caller already holding it, this blocks forever.
func (b *box) selfDeadlockLocked() {
	b.mu.Lock() // want `Lock acquires b.mu inside selfDeadlockLocked`
	b.val++
	b.mu.Unlock()
}

func (b *box) rlockLocked() int {
	b.rw.RLock() // want `RLock acquires b.rw inside rlockLocked`
	defer b.rw.RUnlock()
	return b.val
}

func (b *box) bumpLocked() { b.val++ }

// naked calls a *Locked helper with no lock in sight.
func (b *box) naked() {
	b.bumpLocked() // want `bumpLocked is called without a mutex visibly held`
}

// held acquires first: allowed.
func (b *box) held() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.bumpLocked()
}

// tryHeld takes the lock only if it is free: the body a successful TryLock
// guards holds it.
func (b *box) tryHeld() {
	if b.mu.TryLock() {
		b.bumpLocked()
		b.mu.Unlock()
	} else {
		b.bumpLocked() // want `bumpLocked is called without a mutex visibly held`
	}
}

// tryLoop retakes the lock while there is work and the lock is free.
func (b *box) tryLoop(work func() bool) {
	for work() && b.mu.TryLock() {
		b.bumpLocked()
		b.mu.Unlock()
	}
}

// tryAfter calls past the guarded body, where the lock is released.
func (b *box) tryAfter() {
	if b.mu.TryLock() {
		b.mu.Unlock()
	}
	b.bumpLocked() // want `bumpLocked is called without a mutex visibly held`
}

// tryEither does not know which of two conditions held.
func (b *box) tryEither(ok bool) {
	if ok || b.mu.TryLock() {
		b.bumpLocked() // want `bumpLocked is called without a mutex visibly held`
	}
}

// chained *Locked callers are allowed: the promise propagates.
func (b *box) chainLocked() {
	b.bumpLocked()
}

// goroutine bodies do not inherit the caller's lock.
func (b *box) leaky() {
	b.mu.Lock()
	defer b.mu.Unlock()
	go func() {
		b.bumpLocked() // want `bumpLocked is called without a mutex visibly held`
	}()
}

// closureHeld locks inside the literal itself: allowed.
func (b *box) closureHeld() func() {
	return func() {
		b.mu.Lock()
		defer b.mu.Unlock()
		b.bumpLocked()
	}
}

// annotated documents a scheme the analyzer cannot see (e.g. the lock
// is taken by a wrapper generated elsewhere).
func (b *box) external() {
	//hydee:allow lockdiscipline(lock held by caller via runWith wrapper)
	b.bumpLocked()
}
