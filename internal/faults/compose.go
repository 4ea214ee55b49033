package faults

import (
	"encoding/json"
	"fmt"
	"time"

	"correctables/internal/netsim"
)

// Track is one named, independently generated fault schedule — a single
// nemesis (a partition storm, a lossy WAN, a rolling crash). Tracks are the
// unit of composition (Compose) and of shrinking (a minimizer drops whole
// tracks first, then events within a track).
type Track struct {
	Name     string
	Schedule *Schedule
}

// Compose merges concurrent tracks into one schedule. Events keep their
// instants — the merged schedule interleaves the tracks in time — and every
// Partition/Heal pair is rewritten to a fresh ID unique across the
// composition, so a track's heal can only ever end that track's partition:
// overlapping windows from different nemeses keep independent lifetimes
// under the injector's common-refinement merge. Within a track, tagged
// pairs keep their pairing and untagged heals pair FIFO with that track's
// untagged partitions (the legacy oldest-first convention, confined to the
// track). An untagged heal with no open partition in its own track is
// dropped rather than left to heal a neighbour's.
func Compose(tracks ...Track) *Schedule {
	out := NewSchedule()
	nextID := 0
	for _, t := range tracks {
		if t.Schedule == nil {
			continue
		}
		idMap := make(map[int]int) // track-local ID -> composed ID
		var fifo []int             // composed IDs of open untagged partitions
		for _, te := range t.Schedule.Events() {
			switch ev := te.Event.(type) {
			case Partition:
				nextID++
				if ev.ID != 0 {
					idMap[ev.ID] = nextID
				} else {
					fifo = append(fifo, nextID)
				}
				out.At(te.At, Partition{Groups: ev.Groups, ID: nextID})
			case Heal:
				if ev.ID != 0 {
					if id, ok := idMap[ev.ID]; ok {
						out.At(te.At, Heal{ID: id})
					}
					continue
				}
				if len(fifo) > 0 {
					out.At(te.At, Heal{ID: fifo[0]})
					fifo = fifo[1:]
				}
			default:
				out.At(te.At, te.Event)
			}
		}
	}
	return out
}

// Atoms decomposes the schedule into its removable units, in time order of
// each unit's first event: a Partition with its matching Heal (paired by
// ID, or FIFO for untagged events), a Crash with the first later Restart of
// the same region, and each LatencySpike/Drop alone (their expiries are
// internal to the injector). An unmatched Heal or Restart forms an atom of
// its own, so flattening the atoms always reproduces the schedule's exact
// event multiset. Shrinkers remove atoms, never lone events, keeping every
// candidate schedule well-formed.
func (s *Schedule) Atoms() [][]TimedEvent {
	var atoms [][]TimedEvent
	add := func(te TimedEvent) int {
		atoms = append(atoms, []TimedEvent{te})
		return len(atoms) - 1
	}
	join := func(idx int, te TimedEvent) { atoms[idx] = append(atoms[idx], te) }

	partByID := make(map[int]int) // Partition.ID -> atom index
	var partFIFO []int            // atom indices of open untagged partitions
	crashFIFO := make(map[netsim.Region][]int)
	for _, te := range s.Events() {
		switch ev := te.Event.(type) {
		case Partition:
			idx := add(te)
			if ev.ID != 0 {
				partByID[ev.ID] = idx
			} else {
				partFIFO = append(partFIFO, idx)
			}
		case Heal:
			switch {
			case ev.ID != 0:
				if idx, ok := partByID[ev.ID]; ok {
					join(idx, te)
					delete(partByID, ev.ID)
				} else {
					add(te)
				}
			case len(partFIFO) > 0:
				join(partFIFO[0], te)
				partFIFO = partFIFO[1:]
			default:
				add(te)
			}
		case Crash:
			crashFIFO[ev.Region] = append(crashFIFO[ev.Region], add(te))
		case Restart:
			if q := crashFIFO[ev.Region]; len(q) > 0 {
				join(q[0], te)
				crashFIFO[ev.Region] = q[1:]
			} else {
				add(te)
			}
		default:
			add(te)
		}
	}
	return atoms
}

// eventJSON is the wire form of one schedule entry. Kind selects the event
// type; the remaining fields are per-kind.
type eventJSON struct {
	AtNs   int64      `json:"at_ns"`
	Kind   string     `json:"kind"` // partition, heal, crash, restart, spike, drop
	ID     int        `json:"id,omitempty"`
	Groups [][]string `json:"groups,omitempty"`
	Region string     `json:"region,omitempty"`
	From   string     `json:"from,omitempty"`
	To     string     `json:"to,omitempty"`
	Factor float64    `json:"factor,omitempty"`
	Prob   float64    `json:"prob,omitempty"`
	DurNs  int64      `json:"dur_ns,omitempty"`
}

// trackJSON is the wire form of a Track.
type trackJSON struct {
	Name   string      `json:"name"`
	Events []eventJSON `json:"events"`
}

// marshalEvent converts a schedule entry to its wire form. Internal
// transitions (expiries, quiesce) never appear in a Schedule and are
// rejected.
func marshalEvent(te TimedEvent) (eventJSON, error) {
	ej := eventJSON{AtNs: int64(te.At)}
	switch ev := te.Event.(type) {
	case Partition:
		ej.Kind = "partition"
		ej.ID = ev.ID
		for _, g := range ev.Groups {
			names := make([]string, len(g))
			for i, r := range g {
				names[i] = string(r)
			}
			ej.Groups = append(ej.Groups, names)
		}
	case Heal:
		ej.Kind = "heal"
		ej.ID = ev.ID
	case Crash:
		ej.Kind = "crash"
		ej.Region = string(ev.Region)
	case Restart:
		ej.Kind = "restart"
		ej.Region = string(ev.Region)
	case LatencySpike:
		ej.Kind = "spike"
		ej.From, ej.To = string(ev.From), string(ev.To)
		ej.Factor = ev.Factor
		ej.DurNs = int64(ev.Duration)
	case Drop:
		ej.Kind = "drop"
		ej.From, ej.To = string(ev.From), string(ev.To)
		ej.Prob = ev.Prob
		ej.DurNs = int64(ev.Duration)
	default:
		return eventJSON{}, fmt.Errorf("faults: event %T has no wire form", te.Event)
	}
	return ej, nil
}

// unmarshalEvent is the inverse of marshalEvent.
func unmarshalEvent(ej eventJSON) (TimedEvent, error) {
	te := TimedEvent{At: time.Duration(ej.AtNs)}
	switch ej.Kind {
	case "partition":
		p := Partition{ID: ej.ID}
		for _, g := range ej.Groups {
			regions := make([]netsim.Region, len(g))
			for i, n := range g {
				regions[i] = netsim.Region(n)
			}
			p.Groups = append(p.Groups, regions)
		}
		te.Event = p
	case "heal":
		te.Event = Heal{ID: ej.ID}
	case "crash":
		te.Event = Crash{Region: netsim.Region(ej.Region)}
	case "restart":
		te.Event = Restart{Region: netsim.Region(ej.Region)}
	case "spike":
		te.Event = LatencySpike{From: netsim.Region(ej.From), To: netsim.Region(ej.To),
			Factor: ej.Factor, Duration: time.Duration(ej.DurNs)}
	case "drop":
		te.Event = Drop{From: netsim.Region(ej.From), To: netsim.Region(ej.To),
			Prob: ej.Prob, Duration: time.Duration(ej.DurNs)}
	default:
		return TimedEvent{}, fmt.Errorf("faults: unknown event kind %q", ej.Kind)
	}
	return te, nil
}

// MarshalJSON encodes the track in its wire form: the name and every
// scheduled event, which is how hunt repros archive their fault tracks.
func (t Track) MarshalJSON() ([]byte, error) {
	tj := trackJSON{Name: t.Name, Events: []eventJSON{}}
	if t.Schedule != nil {
		for _, te := range t.Schedule.Events() {
			ej, err := marshalEvent(te)
			if err != nil {
				return nil, fmt.Errorf("track %s: %w", t.Name, err)
			}
			tj.Events = append(tj.Events, ej)
		}
	}
	return json.Marshal(tj)
}

// UnmarshalJSON is the inverse of MarshalJSON.
func (t *Track) UnmarshalJSON(data []byte) error {
	var tj trackJSON
	if err := json.Unmarshal(data, &tj); err != nil {
		return err
	}
	s := NewSchedule()
	for _, ej := range tj.Events {
		te, err := unmarshalEvent(ej)
		if err != nil {
			return fmt.Errorf("track %s: %w", tj.Name, err)
		}
		s.At(te.At, te.Event)
	}
	*t = Track{Name: tj.Name, Schedule: s}
	return nil
}
