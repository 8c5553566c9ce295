package core

// Flight-recorder instrumentation: when Options.Flight carries an
// export.Recorder, Analyze records a structured log of the run — the
// trace's events, every hb1 edge tagged with its origin (po or so1),
// the race-partner edges of G′, the detection phases as a live timeline,
// and the races and partitions found. With a nil recorder every hook
// below is a pointer check; the hot paths do no formatting, no
// allocation, and no time calls.

import (
	"fmt"
	"time"

	"weakrace/internal/memmodel"
	"weakrace/internal/telemetry"
	"weakrace/internal/telemetry/export"
	"weakrace/internal/trace"
)

// flight is the per-Analyze recording context: the shared recorder plus
// this analysis's sequence number and timeline track.
type flight struct {
	fr    *export.Recorder
	seq   int
	track string
}

// newFlight allocates a recording context, or nil when no recorder is
// attached (the zero-overhead path).
func newFlight(fr *export.Recorder) *flight {
	if fr == nil {
		return nil
	}
	seq := fr.NextSeq()
	return &flight{fr: fr, seq: seq, track: fmt.Sprintf("analysis %d", seq)}
}

// startPhase begins a telemetry span and, when a flight recorder is
// attached, a flight phase. The returned func ends both. With telemetry
// disabled and no recorder this costs one atomic load and one nil check.
func startPhase(reg *telemetry.Registry, fl *flight, name string) func() {
	sp := reg.StartSpan(name)
	if fl == nil {
		return sp.End
	}
	t0 := time.Now()
	return func() {
		sp.End()
		fl.fr.Phase(fl.seq, name, fl.track, t0)
	}
}

// record dumps the analysis's structure into the flight log: meta,
// events, hb1 edges by origin, G′ partner edges, races, and partitions.
// Runs once per Analyze, after the pipeline, off the hot path.
func (fl *flight) record(a *Analysis) {
	t := a.Trace
	fl.emit(export.Record{Kind: export.KindMeta, Meta: &export.MetaRec{
		Tool:      "core.Analyze",
		Program:   t.ProgramName,
		Model:     t.Model.String(),
		Seed:      t.Seed,
		CPUs:      t.NumCPUs,
		Locations: t.NumLocations,
		Events:    a.NumEvents,
	}})
	for c, evs := range t.PerCPU {
		for i, ev := range evs {
			fl.emit(export.Record{Kind: export.KindEvent, Event: &export.EventRec{
				CPU: c, Index: i, Kind: ev.Kind.String(), Desc: ev.String(),
			}})
		}
	}
	// hb1 edges, re-derived from the trace the same way buildHB builds
	// them, so each carries its origin tag without the builder paying for
	// provenance it does not need.
	for c, evs := range t.PerCPU {
		for i, ev := range evs {
			id := int(a.ID(trace.EventRef{CPU: c, Index: i}))
			if i+1 < len(evs) {
				fl.emit(export.Record{Kind: export.KindEdge, Edge: &export.EdgeRec{
					From: id, To: id + 1, Origin: export.OriginPO,
				}})
			}
			if ev.Kind == trace.Sync && ev.Role == memmodel.RoleAcquire &&
				ev.Observed.Valid() && a.Options.Pairing.CanPair(ev.ObservedRole) {
				fl.emit(export.Record{Kind: export.KindEdge, Edge: &export.EdgeRec{
					From: int(a.ID(ev.Observed)), To: id, Origin: export.OriginSO1,
				}})
			}
		}
	}
	// Partner edges: one per race, data or synchronization (each doubly
	// directed, recorded once with From < To), in (A, B) order. This is
	// the un-collapsed G′ augmentation — the implicit path's
	// per-CPU-minimal partner lists are an equivalent compression of
	// exactly these edges. The synchronization races are re-derived here
	// (ForEachSyncRace): the analysis only counted them.
	a.ForEachRace(func(r Race) bool {
		fl.emit(export.Record{Kind: export.KindEdge, Edge: &export.EdgeRec{
			From: int(r.A), To: int(r.B), Origin: export.OriginPartner,
		}})
		return true
	})
	a.ForEachRace(func(r Race) bool {
		fl.emit(export.Record{Kind: export.KindRace, Race: &export.RaceRec{
			A: int(r.A), B: int(r.B),
			ARef: a.Ref(r.A).String(), BRef: a.Ref(r.B).String(),
			Locs: r.Locs.String(), Data: r.Data,
		}})
		return true
	})
	for pi, p := range a.Partitions {
		events := make([]int, len(p.Events))
		for i, id := range p.Events {
			events[i] = int(id)
		}
		fl.emit(export.Record{Kind: export.KindPartition, Partition: &export.PartitionRec{
			Index: pi, Component: p.Component, First: p.First,
			Races: append([]int(nil), p.Races...), Events: events,
		}})
	}
}

func (fl *flight) emit(rec export.Record) {
	rec.Seq = fl.seq
	fl.fr.Emit(rec)
}
