package engine

import (
	"fmt"
	"time"

	"launchmon/internal/cluster"
)

// This file implements the engine's internal event pipeline (paper §3.1):
// the Driver organizes the main operations, calling the EventManager to
// poll the traced RM process, the EventDecoder to lift native OS-level
// trace events into LaunchMON events, and the EventHandler table to react.
// The modular split is what makes ports cheap: a new platform supplies a
// different EventManager/Decoder parameterization while the Driver and
// handlers stay fixed.

// eventKind classifies decoded LaunchMON events.
type eventKind int

// LaunchMON event kinds.
const (
	// evLauncherStop: the launcher stopped on an ordinary debug event.
	evLauncherStop eventKind = iota
	// evBreakpoint: the launcher reached MPIR_Breakpoint (job ready).
	evBreakpoint
	// evAttachStop: the launcher stopped due to a tracer interrupt.
	evAttachStop
	// evLauncherExit: the launcher exited.
	evLauncherExit
)

// event is a decoded LaunchMON event.
type event struct {
	Kind   eventKind
	Reason string
	Code   int // exit code for evLauncherExit
}

// eventManager polls the target RM process for native trace events.
type eventManager struct {
	tr *cluster.Tracer
}

// newEventManager wraps an attached tracer.
func newEventManager(tr *cluster.Tracer) *eventManager { return &eventManager{tr: tr} }

// poll blocks for the next native event; ok is false when the event stream
// has closed (tracee exited or tracer detached).
func (em *eventManager) poll() (cluster.TraceEvent, bool) {
	return em.tr.Events().Recv()
}

// eventDecoder converts native trace events into LaunchMON events.
type eventDecoder struct {
	breakpointName string
}

// newEventDecoder builds a decoder recognizing the platform's APAI
// breakpoint symbol.
func newEventDecoder(breakpointName string) *eventDecoder {
	return &eventDecoder{breakpointName: breakpointName}
}

// decode lifts a native event.
func (d *eventDecoder) decode(ev cluster.TraceEvent) event {
	switch ev.Type {
	case cluster.EventExit:
		return event{Kind: evLauncherExit, Code: ev.Code}
	case cluster.EventStop:
		switch ev.Reason {
		case d.breakpointName:
			return event{Kind: evBreakpoint, Reason: ev.Reason}
		case "interrupt":
			return event{Kind: evAttachStop, Reason: ev.Reason}
		default:
			return event{Kind: evLauncherStop, Reason: ev.Reason}
		}
	default:
		return event{Kind: evLauncherStop, Reason: ev.Reason}
	}
}

// handler reacts to one LaunchMON event. Returning stop=true ends the
// driver loop (with the event as the loop's result).
type handler func(event) (stop bool, err error)

// driver owns the poll→decode→dispatch loop.
type driver struct {
	proc        *cluster.Proc // the engine process (charged handler cost)
	em          *eventManager
	dec         *eventDecoder
	handlers    map[eventKind]handler
	handlerCost time.Duration

	// TracingCost accumulates the engine CPU time spent handling events —
	// LaunchMON's only contribution to Region A of the model.
	TracingCost time.Duration
	// EventsSeen counts dispatched events.
	EventsSeen int
}

// newDriver assembles the pipeline. handlerCost is charged per dispatched
// event (the paper's measured per-event handler cost; 18 ms total for
// SLURM's 12 events at the 1.5 ms default).
func newDriver(proc *cluster.Proc, em *eventManager, dec *eventDecoder, handlerCost time.Duration) *driver {
	return &driver{
		proc:        proc,
		em:          em,
		dec:         dec,
		handlers:    make(map[eventKind]handler),
		handlerCost: handlerCost,
	}
}

// handle registers the handler for an event kind.
func (d *driver) handle(kind eventKind, h handler) { d.handlers[kind] = h }

// run polls, decodes and dispatches until a handler stops the loop or the
// event stream ends. It returns the stopping event.
func (d *driver) run() (event, error) {
	for {
		native, ok := d.em.poll()
		if !ok {
			return event{Kind: evLauncherExit, Code: -1}, fmt.Errorf("engine: event stream closed")
		}
		ev := d.dec.decode(native)
		d.proc.Compute(d.handlerCost)
		d.TracingCost += d.handlerCost
		d.EventsSeen++
		h, found := d.handlers[ev.Kind]
		if !found {
			continue
		}
		stop, err := h(ev)
		if err != nil {
			return ev, err
		}
		if stop {
			return ev, nil
		}
	}
}
