package deepdive_test

// Health state machine + self-healing WAL repair tests: a broken
// durable chain heals itself without a manual Checkpoint, escalates to
// ReadOnly when repair keeps failing, serves reads through every state,
// and — with auto-repair disabled (the lesion) — stays wedged exactly
// like the pre-self-healing KB.

import (
	"context"
	"errors"
	"testing"
	"time"

	"deepdive"
)

// waitHealth polls until the KB reaches the wanted state or the timeout
// elapses.
func waitHealth(t *testing.T, kb *deepdive.KB, want deepdive.HealthState, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if kb.Health().State == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("health never reached %v (now %v)", want, kb.Health().State)
}

// TestAutoRepairHealsBrokenChain: an injected EIO on a WAL append
// latches DurabilityDegraded, the background loop repairs the chain
// without any manual Checkpoint, updates flow again, and recovery after
// a clean close matches the live fact set.
func TestAutoRepairHealsBrokenChain(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	plan := deepdive.NewIOFaultPlan(1)
	kb := persistSpouseKB(t, deepdive.WithDataDir(dir),
		deepdive.WithIOFaults(plan),
		deepdive.WithRepairBackoff(20*time.Millisecond, 100*time.Millisecond))
	bmust(t, kb.Checkpoint(ctx))
	if _, err := kb.Apply(ctx, docUpdate(0)); err != nil {
		t.Fatal(err)
	}
	if st := kb.Health(); st.State != deepdive.Healthy || !st.AutoRepair || !st.Durable {
		t.Fatalf("fresh durable KB health = %+v", st)
	}

	plan.Arm(deepdive.IOWALAppend, deepdive.ErrInjectedIO)
	_, err := kb.Apply(ctx, docUpdate(1))
	if !errors.Is(err, deepdive.ErrDurabilitySuspended) {
		t.Fatalf("faulted update: got %v, want ErrDurabilitySuspended", err)
	}
	if !errors.Is(err, deepdive.ErrInjectedIO) {
		t.Fatalf("faulted update should carry the append failure: %v", err)
	}

	// Reads keep serving off the snapshot pointer while degraded.
	if kb.Snapshot() == nil || len(kb.Extractions("HasSpouse", 0)) == 0 {
		t.Fatal("reads unavailable while degraded")
	}

	// The repair checkpoint lands in the background — no manual call.
	waitHealth(t, kb, deepdive.Healthy, 10*time.Second)
	st := kb.Health()
	if st.WALBroken || st.AutoRepairs != 1 || st.RepairAttempts < 1 {
		t.Fatalf("post-repair health = %+v", st)
	}
	if _, err := kb.Apply(ctx, docUpdate(2)); err != nil {
		t.Fatalf("update after auto-repair: %v", err)
	}
	want := spouseBits(kb)
	bmust(t, kb.Close())

	kb2 := reopenSpouseKB(t, dir)
	defer kb2.Close()
	assertSameBits(t, want, spouseBits(kb2), "after auto-repair")
}

// TestReadOnlyEscalation: when every repair attempt fails (sticky
// ENOSPC on WAL rotation), ReadOnlyAfter consecutive failures escalate
// Degraded → ReadOnly; updates report ErrReadOnly, reads still serve,
// and clearing the fault lets the still-running loop heal to Healthy.
func TestReadOnlyEscalation(t *testing.T) {
	ctx := context.Background()
	plan := deepdive.NewIOFaultPlan(2)
	kb := persistSpouseKB(t, deepdive.WithDataDir(t.TempDir()),
		deepdive.WithIOFaults(plan),
		deepdive.WithRepairBackoff(5*time.Millisecond, 20*time.Millisecond),
		deepdive.WithReadOnlyAfter(2))
	defer kb.Close()
	bmust(t, kb.Checkpoint(ctx))

	plan.SetSticky(deepdive.IOWALCreate, deepdive.ErrInjectedNoSpace)
	plan.Arm(deepdive.IOWALAppend, deepdive.ErrInjectedNoSpace)
	if _, err := kb.Apply(ctx, docUpdate(0)); err == nil {
		t.Fatal("faulted update acknowledged")
	}
	waitHealth(t, kb, deepdive.ReadOnly, 10*time.Second)

	_, err := kb.Apply(ctx, docUpdate(1))
	if !errors.Is(err, deepdive.ErrReadOnly) {
		t.Fatalf("read-only update: got %v, want ErrReadOnly", err)
	}
	if !errors.Is(err, deepdive.ErrDurabilitySuspended) {
		t.Fatal("ErrReadOnly must refine ErrDurabilitySuspended for errors.Is")
	}
	if len(kb.Extractions("HasSpouse", 0)) == 0 {
		t.Fatal("reads unavailable while read-only")
	}

	// Disk comes back: the loop is still retrying and heals on its own.
	plan.SetSticky(deepdive.IOWALCreate, nil)
	waitHealth(t, kb, deepdive.Healthy, 10*time.Second)
	if _, err := kb.Apply(ctx, docUpdate(2)); err != nil {
		t.Fatalf("update after recovery from read-only: %v", err)
	}
	if st := kb.Health(); st.RepairFailures < 2 {
		t.Fatalf("expected >=2 counted repair failures, got %+v", st)
	}
}

// TestAutoRepairLesionStaysWedged: with auto-repair disabled the broken
// chain stays latched (no background attempts), exactly the manual-
// Checkpoint behavior the chaos harness uses as its lesion control.
func TestAutoRepairLesionStaysWedged(t *testing.T) {
	ctx := context.Background()
	plan := deepdive.NewIOFaultPlan(3)
	kb := persistSpouseKB(t, deepdive.WithDataDir(t.TempDir()),
		deepdive.WithIOFaults(plan),
		deepdive.WithLesions(deepdive.Lesions{NoAutoRepair: true}),
		deepdive.WithRepairBackoff(5*time.Millisecond, 10*time.Millisecond))
	defer kb.Close()
	bmust(t, kb.Checkpoint(ctx))

	plan.Arm(deepdive.IOWALAppend, deepdive.ErrInjectedIO)
	if _, err := kb.Apply(ctx, docUpdate(0)); err == nil {
		t.Fatal("faulted update acknowledged")
	}
	time.Sleep(150 * time.Millisecond) // many backoff periods
	st := kb.Health()
	if st.State != deepdive.DurabilityDegraded || st.AutoRepair || st.RepairAttempts != 0 {
		t.Fatalf("lesion KB should stay wedged with zero attempts: %+v", st)
	}
	if _, err := kb.Apply(ctx, docUpdate(1)); !errors.Is(err, deepdive.ErrDurabilitySuspended) {
		t.Fatalf("wedged update: got %v, want ErrDurabilitySuspended", err)
	}

	// Manual repair still works.
	bmust(t, kb.Checkpoint(ctx))
	if kb.Health().State != deepdive.Healthy {
		t.Fatalf("manual Checkpoint should heal: %+v", kb.Health())
	}
	if _, err := kb.Apply(ctx, docUpdate(2)); err != nil {
		t.Fatal(err)
	}
}
