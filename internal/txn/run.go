package txn

import (
	"context"
	"errors"
	"time"

	"gstm/internal/overload"
	"gstm/internal/tts"
)

// Run executes fn transactionally as pair under policy p, retrying on
// conflicts until commit. If fn returns a non-nil error the transaction
// is rolled back and the error is returned without retrying — the
// caller-level abort idiom. This is the plain Atomic entry point: when
// Config.DefaultDeadline is set the call is bounded by it.
func Run[T any](c *Core, p Policy[T], pair tts.Pair, fn func(T) error) error {
	if d := c.cfg.DefaultDeadline; d > 0 {
		return runFor(d, c, p, pair, fn)
	}
	return RunCtx(context.Background(), c, p, pair, overload.PriNormal, fn)
}

// runFor is Run under Config.DefaultDeadline, kept apart so the
// deadline-free path carries no defer.
func runFor[T any](d time.Duration, c *Core, p Policy[T], pair tts.Pair, fn func(T) error) error {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return RunCtx(ctx, c, p, pair, overload.PriNormal, fn)
}

// RunCtx is Run with a deadline and an admission priority: the retry
// loop, backoff sleeps, the runtime's own waits and the escalation
// token wait all observe ctx.Done(), and when ctx expires before the
// transaction commits the call returns an error wrapping both
// Config.ErrDeadline and ctx.Err(). A nil ctx behaves like
// context.Background(). pri is the class the overload limiter sheds by
// (ignored without one); a shed call returns an error wrapping
// overload.ErrShed before any descriptor exists — distinguishable from
// ErrDeadline, which means the runtime ran and lost to the clock.
//
// Progress guarantee: once the call's abort count reaches the
// escalation threshold or its age exceeds Config.EscalateTime, the
// transaction re-runs on the irrevocable serial path and is guaranteed
// to commit — so with a deadline set, every call terminates with a
// commit, a user error, ErrRetryLimit or ErrDeadline.
func RunCtx[T any](ctx context.Context, c *Core, p Policy[T], pair tts.Pair, pri overload.Pri, fn func(T) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	var cl call[T]
	cl.c, cl.p, cl.pair = c, p, pair
	if lim := c.cfg.Overload; lim != nil {
		if err := lim.Acquire(ctx, pri); err != nil {
			if !errors.Is(err, overload.ErrShed) {
				// The context expired while waiting for a token: the
				// usual deadline outcome, just decided in the queue.
				return c.deadlineErr(ctx)
			}
			c.sheds.Add(1)
			if sg, ok := c.hooks.Load().gate.(ShedGate); ok {
				sg.NoteShed(pair)
			}
			return err
		}
		cl.lim, cl.admitted = lim, lim.Now()
	}
	cl.done = ctx.Done()
	cl.tx = p.Acquire(pair, cl.done)

	var t0 time.Time
	rec := c.hooks.Load().lat
	if rec != nil || c.cfg.EscalateTime > 0 {
		// time.Now is kept off the uncontended fast path unless a
		// feature that needs it is armed.
		t0 = time.Now()
	}
	err := cl.loop(ctx, fn, t0)
	if rec != nil {
		rec.Record(pair, time.Since(t0))
	}
	cl.releaseToken(err == nil)
	p.Recycle(cl.tx)
	return err
}

// call is the state of one Atomic call, on RunCtx's stack. The body is
// passed beside it, not stored in it: escape analysis is per struct,
// and tx escapes into the policy's interface calls.
type call[T any] struct {
	c    *Core
	p    Policy[T]
	tx   T
	pair tts.Pair
	done <-chan struct{} // the call's ctx.Done()
	// lim is the limiter this call holds an admission token from, nil
	// if none.
	lim      *overload.Limiter
	admitted time.Time
}

func (cl *call[T]) releaseToken(committed bool) {
	if cl.lim != nil {
		cl.lim.Release(cl.admitted, committed)
	}
}

// loop is the only retry loop in the repository.
func (cl *call[T]) loop(ctx context.Context, fn func(T) error, t0 time.Time) error {
	c := cl.c
	for attempts := 0; ; {
		if expired(cl.done) {
			return c.deadlineErr(ctx)
		}
		h, mode := c.hooks.Load(), Optimistic
		if attempts > 0 && c.shouldEscalate(attempts, t0) {
			if !c.Irrev.Acquire(ctx) {
				return c.deadlineErr(ctx)
			}
			mode = Irrevocable
			// The gate must not hold an irrevocable transaction — every
			// committer is about to quiesce behind it — so it is told
			// only through the non-blocking surface.
			if ig, ok := h.gate.(IrrevocableGate); ok {
				ig.AdmitIrrevocable(cl.pair)
			}
		} else if h.gate != nil {
			h.gate.Admit(cl.pair)
		}
		inst, mon := c.instances.Add(1), h.mon
		cl.p.Begin(cl.tx, inst, mon, mode)
		if mon != nil {
			mon.OnTxBegin(inst, cl.pair)
		}

		committed, killer, err := cl.attempt(fn, mode)
		if committed {
			if mon != nil {
				mon.OnTxCommit(inst)
			}
			st := c.stripe(cl.pair.Thread)
			if mode == Irrevocable {
				st.escalations.Add(1)
			}
			st.commits.Add(1)
			c.hooks.Load().tracer.OnCommit(inst, cl.pair)
			return nil
		}
		if mon != nil {
			mon.OnTxAbort(inst)
		}
		if err != nil {
			return err
		}
		c.stripe(cl.pair.Thread).aborts.Add(1)
		c.cfg.Overload.NoteAbort()
		c.hooks.Load().tracer.OnAbort(cl.pair, killer)
		attempts++
		if c.cfg.MaxRetries > 0 && attempts > c.cfg.MaxRetries {
			return c.cfg.ErrRetryLimit
		}
		c.observeWatchdog()
		if y := c.cfg.Yield; y != nil {
			// Under a deterministic scheduler, sleeping would stall the
			// whole exploration without changing the interleaving; a
			// single hook yield is the schedule point.
			y()
		} else {
			cl.p.Backoff(cl.tx, attempts)
		}
	}
}

// attempt runs the body and the commit once, converting the runtime's
// control-flow panics into a result and applying the release rule (see
// the package comment) on every exit that is not a commit. A nil error
// without a commit is a conflict: retry.
func (cl *call[T]) attempt(fn func(T) error, mode Mode) (committed bool, killer uint64, err error) {
	defer func() {
		if !committed {
			cl.p.Release(cl.tx)
		}
		if mode == Irrevocable {
			cl.c.Irrev.Release()
		}
		if committed {
			return
		}
		switch sig := recover().(type) {
		case nil: // the body returned an error
		case Abort:
			killer = sig.Killer
		default:
			cl.releaseToken(false)
			panic(sig)
		}
	}()
	if err = fn(cl.tx); err != nil {
		return false, 0, err
	}
	cl.p.Commit(cl.tx)
	return true, 0, nil
}
