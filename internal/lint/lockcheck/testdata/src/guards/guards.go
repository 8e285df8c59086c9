// Package guards is the lockcheck fixture for the //lint:guards core:
// guarded fields only under the lock, pairing discipline on every
// return path, the early-unlock-return shape, the *Locked convention,
// and the conservative (never-report-on-unknown) merge.
package guards

import "sync"

type counter struct {
	//lint:guards n, closed
	mu     sync.Mutex
	n      int
	closed bool
	name   string // unguarded: free access
}

// Bad reads a guarded field with the mutex definitely not held.
func (c *counter) Bad() int {
	return c.n // want `c\.n is guarded by c\.mu`
}

// Good is the plain lock/unlock bracket.
func (c *counter) Good() int {
	c.mu.Lock()
	n := c.n
	c.mu.Unlock()
	return n
}

// DeferGood covers multi-return under a deferred unlock.
func (c *counter) DeferGood() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return -1
	}
	return c.n
}

// EarlyUnlockReturn is the deliver shape: the terminating branch does
// not merge back, so the tail still knows the lock is held.
func (c *counter) EarlyUnlockReturn() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.n++
	c.mu.Unlock()
}

// ReturnWhileHeld leaks the lock through an early return.
func (c *counter) ReturnWhileHeld() int {
	c.mu.Lock()
	return c.n // want `return while c\.mu is held`
}

// LeakLock leaks it by falling off the end.
func (c *counter) LeakLock() {
	c.mu.Lock()
	c.n++
} // want `c\.mu falls off the end still held`

// DoubleLock self-deadlocks.
func (c *counter) DoubleLock() {
	c.mu.Lock()
	c.mu.Lock() // want `self-deadlock`
	c.mu.Unlock()
}

// UnlockNotHeld releases a mutex it never took.
func (c *counter) UnlockNotHeld() {
	c.mu.Unlock() // want `c\.mu\.Unlock while c\.mu is not held`
}

// incLocked follows the *Locked convention: the caller holds mu, so
// the guarded access and the held return are both fine.
func (c *counter) incLocked() { c.n++ }

// MaybeLock proves the conservative merge: after an if that locks on
// one branch only, the state is unknown and nothing is reported.
func (c *counter) MaybeLock(b bool) {
	if b {
		c.mu.Lock()
	}
	_ = c.closed
}

// AfterLoop proves loop merges keep definite knowledge when the body
// restores the pre-state.
func (c *counter) AfterLoop() {
	for i := 0; i < 3; i++ {
		c.mu.Lock()
		c.n++
		c.mu.Unlock()
	}
	_ = c.closed // want `c\.closed is guarded by c\.mu`
}

// Name touches only unguarded state.
func (c *counter) Name() string { return c.name }

// Reset writes guarded fields of a local instance: keys are tracked
// per base expression, not just for receivers.
func Reset(fresh *counter) {
	fresh.n = 0 // want `fresh\.n is guarded by fresh\.mu`
	fresh.mu.Lock()
	fresh.closed = false
	fresh.mu.Unlock()
}

// BranchDeferLeak defers the unlock only on the branch that returns;
// the path that skips the branch falls off the end still holding mu.
// Deferred unlocks are path-sensitive: a defer inside a branch covers
// that branch's exits, not its siblings'.
func (c *counter) BranchDeferLeak(cond bool) {
	c.mu.Lock()
	if cond {
		defer c.mu.Unlock()
		c.n++
		return
	}
	c.n = 2
} // want `c\.mu falls off the end still held`

// BothArmsDefer defers the unlock on both arms of an if, so the merge
// keeps it and the shared tail may return while holding mu.
func (c *counter) BothArmsDefer(cond bool) int {
	c.mu.Lock()
	if cond {
		defer c.mu.Unlock()
	} else {
		defer c.mu.Unlock()
	}
	return c.n
}

// OneArmDefer defers the unlock on one arm only, so the return after
// the merge leaks the lock on the other.
func (c *counter) OneArmDefer(cond bool) int {
	c.mu.Lock()
	if cond {
		defer c.mu.Unlock()
	} else {
		c.n++
	}
	return c.n // want `return while c\.mu is held`
}
