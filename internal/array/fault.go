package array

import (
	"errors"
	"fmt"
	"time"
)

// Typed front-end errors. All of them survive fmt wrapping, so callers
// test with errors.Is.
var (
	// ErrClosed reports a Submit/Drain/Flush after Close.
	ErrClosed = errors.New("array: closed")
	// ErrDriveDead reports an op that needed a dead, unprotected drive.
	ErrDriveDead = errors.New("array: drive dead")
	// ErrDriveFault reports a deterministic injected transient fault
	// that persisted through the in-batch retries.
	ErrDriveFault = errors.New("array: injected drive fault")
)

// DriveFault is the deterministic fault schedule for one array slot.
// Zero values disable each mechanism independently.
type DriveFault struct {
	// Drive is the targeted slot index.
	Drive int
	// FailStopRound halts the drive at the start of that scheduling
	// round (1-based; 0 = disabled).
	FailStopRound int64
	// FailStopAt halts the drive once the fleet clock reaches this
	// modelled time (0 = disabled).
	FailStopAt time.Duration
	// TransientErrRate is the per-op probability (0..1) that the drive
	// refuses an op with ErrDriveFault. Each op retries up to
	// faultRetries times inside its batch before the failure surfaces.
	TransientErrRate float64
	// LatencyFactor multiplies the drive's modelled per-round time
	// (0 or 1 = no degradation).
	LatencyFactor float64
	// UBERCeiling declares the drive dead once its observed page error
	// rate (uncorrectable + injected errors over reads served) crosses
	// it; ¼ and ½ of the ceiling mark the suspect and degraded states.
	// 0 disables UBER-climate death.
	UBERCeiling float64
	// MinReads is the sample floor before the UBER climate is judged
	// (default 64).
	MinReads int64
}

// FaultPlan is the array-wide deterministic fault schedule.
type FaultPlan struct {
	// Seed decorrelates the transient-fault streams from the drive
	// workload streams (folded into each drive's fault RNG).
	Seed uint64
	// Drives lists per-slot fault schedules (at most one per slot).
	Drives []DriveFault
}

// validate rejects malformed plans against the array shape.
func (fp FaultPlan) validate(drives int) error {
	seen := make(map[int]bool, len(fp.Drives))
	for _, df := range fp.Drives {
		if df.Drive < 0 || df.Drive >= drives {
			return fmt.Errorf("array: fault plan targets drive %d of %d", df.Drive, drives)
		}
		if seen[df.Drive] {
			return fmt.Errorf("array: duplicate fault plan for drive %d", df.Drive)
		}
		seen[df.Drive] = true
		if df.TransientErrRate < 0 || df.TransientErrRate >= 1 {
			return fmt.Errorf("array: drive %d: transient error rate %v outside [0,1)", df.Drive, df.TransientErrRate)
		}
		if df.LatencyFactor < 0 {
			return fmt.Errorf("array: drive %d: negative latency factor", df.Drive)
		}
		if df.UBERCeiling < 0 || df.FailStopRound < 0 || df.FailStopAt < 0 || df.MinReads < 0 {
			return fmt.Errorf("array: drive %d: negative fault parameter", df.Drive)
		}
	}
	return nil
}

// faultRetries is the in-batch retry budget for transient faults: a
// refused op is retried immediately (fresh RNG draw each attempt)
// before the failure escapes the drive.
const faultRetries = 2

// faultSeedStride decorrelates per-drive fault streams (splitmix64's
// third-round multiplier — distinct from the drive and die strides).
const faultSeedStride = 0x94d049bb133111eb

// faultRoll draws the drive's seeded splitmix64 stream once and reports
// whether this attempt is refused. Worker-goroutine only.
func (d *drive) faultRoll() bool {
	if d.errRate <= 0 {
		return false
	}
	d.frng += 0x9e3779b97f4a7c15
	z := d.frng
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11)/(1<<53) < d.errRate
}

// applyScheduledFaults fires fail-stop faults whose round or clock
// trigger has arrived. Called at the start of every round, between
// barriers.
func (a *Array) applyScheduledFaults() {
	for _, s := range a.slots {
		if !s.hasFault || s.state >= Dead {
			continue
		}
		f := s.fault
		if (f.FailStopRound > 0 && a.rounds >= f.FailStopRound) ||
			(f.FailStopAt > 0 && a.clock >= f.FailStopAt) {
			a.kill(s)
		}
	}
}

// judgeClimate walks the UBER-climate arm of the health state machine
// after a round's barrier: the drive's observed page error rate
// (uncorrectable + injected over reads served) against the ceiling.
func (a *Array) judgeClimate() {
	for _, s := range a.slots {
		if !s.hasFault || s.fault.UBERCeiling <= 0 || s.state >= Dead || s.d == nil {
			continue
		}
		minReads := s.fault.MinReads
		if minReads == 0 {
			minReads = 64
		}
		if s.d.readOps < minReads {
			continue
		}
		observed := float64(s.d.uncorrectableReads+s.d.injected) / float64(s.d.readOps)
		ceil := s.fault.UBERCeiling
		switch {
		case observed >= ceil:
			if s.state < Degraded {
				s.transition(Degraded, a.rounds, a.clock.Seconds())
			}
			a.kill(s)
		case observed >= ceil/2 && s.state < Degraded:
			if s.state < Suspect {
				s.transition(Suspect, a.rounds, a.clock.Seconds())
			}
			s.transition(Degraded, a.rounds, a.clock.Seconds())
		case observed >= ceil/4 && s.state < Suspect:
			s.transition(Suspect, a.rounds, a.clock.Seconds())
		}
	}
}

// kill declares a slot's member dead: snapshot its telemetry, stop the
// stack, and — when redundancy and a hot spare allow it — attach the
// spare and begin rebuilding. Called only between barriers.
func (a *Array) kill(s *slot) {
	if s.state >= Dead {
		return
	}
	s.transition(Dead, a.rounds, a.clock.Seconds())
	a.trace.Instant1(hostTidSched, "drive_dead", a.clock, "slot", int64(s.id))
	if s.d != nil {
		rep := s.d.report()
		rep.Health = Dead.String()
		s.final = &rep
		// Fold the dead stack's class histograms into the fleet-level
		// retired accumulators so merged latency summaries keep its
		// history after the stack is released.
		a.retired[0].Merge(&s.d.latClean)
		a.retired[1].Merge(&s.d.latRetried)
		a.retired[2].Merge(&s.d.latSoft)
		a.retired[3].Merge(&s.d.latWrite)
		s.d.close()
		s.d = nil
	}
	if a.code.m > 0 {
		a.attachSpare(s)
	}
}
