package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"time"
)

// configJSON holds the fixed workload definitions. They are compiled in so
// that a run cannot pick up a different load than the one committed.
//
//go:embed config.json
var configJSON []byte

// config mirrors config.json; its "note" and "seed_hazards" entries are
// for readers and are not decoded.
type config struct {
	LoadConnections int                 `json:"load_connections"`
	SetupRepeats    int                 `json:"setup_repeats"`
	ProbeRepeats    int                 `json:"probe_repeats"`
	ClientTimeoutMs int                 `json:"client_timeout_ms"`
	NotifyDrainMs   int                 `json:"notify_drain_ms"`
	Server          serverConfig        `json:"server"`
	Workloads       map[string]workload `json:"workloads"`
}

type serverConfig struct {
	MaxConcurrent  int `json:"max_concurrent"`
	QueueDepth     int `json:"queue_depth"`
	QueryTimeoutMs int `json:"query_timeout_ms"`
}

type workload struct {
	Why          string         `json:"why"`
	Backend      string         `json:"backend"` // "mem" (WAL-backed) or "segment"
	Corpus       corpusConfig   `json:"corpus"`
	Rules        bool           `json:"rules"`
	Segment      *segmentConfig `json:"segment,omitempty"`
	Reads        readConfig     `json:"reads"`
	Writes       writeConfig    `json:"writes"`
	Phases       []phaseConfig  `json:"phases"`
	Cycles       int            `json:"cycles"` // the phases run this many times in turn
	Subscription subscription   `json:"subscription"`
}

// subscription is the standing query every workload holds open: a goal
// whose first column names the batch that produced each new row, plus any
// subscription-local rules.
type subscription struct {
	Rules []string `json:"rules,omitempty"`
	Goal  string   `json:"goal"`
}

// corpusConfig sizes the archive by its number of shots (about 6 s each),
// not by its length, so that every seed yields the same number of shots.
type corpusConfig struct {
	Shots   int `json:"shots"`
	Objects int `json:"objects"`
}

type segmentConfig struct {
	BlockCacheBytes   int64 `json:"block_cache_bytes"`
	FlushEveryRecords int   `json:"flush_every_records"`
	CompactAtSegments int   `json:"compact_at_segments"`
}

// readConfig describes the read stream: open loop at a fixed rate, or
// closed loop with one client that sends each read when the last returns.
type readConfig struct {
	Loop     string     `json:"loop"` // "open" or "closed"
	RatePerS float64    `json:"rate_per_s,omitempty"`
	Mix      []mixEntry `json:"mix"`
}

type mixEntry struct {
	Template string `json:"template"`
	Weight   int    `json:"weight"`
}

// writeConfig describes the write stream: open loop at a fixed rate, or
// closed loop with one annotator who posts a batch, waits for its
// acknowledgement and for its row on the standing subscription, and only
// then posts the next.
type writeConfig struct {
	Loop     string  `json:"loop"` // "open" or "closed"
	RatePerS float64 `json:"rate_per_s,omitempty"`
	Batch    string  `json:"batch"` // "shot" or "note" (see corpus.go)
}

// closedWriteCeiling sizes the batch supply of a closed-loop write phase:
// no run posts more than this many batches per second of the phase.
const closedWriteCeiling = 500

// maxWrites is how many batches a run of dur may post.
func (w workload) maxWrites(dur time.Duration) int {
	rate := w.Writes.RatePerS
	if w.Writes.Loop == "closed" {
		rate = closedWriteCeiling
	}
	n := 0
	for _, ph := range w.Phases {
		if ph.Writes {
			n += w.Cycles * int(rate*w.phaseDuration(ph, dur).Seconds())
		}
	}
	return n
}

// phaseConfig is one stretch of the measured window: its share of one
// cycle (a cycle is --seconds divided by the workload's cycles), and which
// streams run during it. Spreading each stream over several cycles means
// a slow stretch on the host touches one cycle, not the whole metric.
type phaseConfig struct {
	Share  float64 `json:"share"`
	Reads  bool    `json:"reads"`
	Writes bool    `json:"writes"`
}

func loadConfig() (*config, error) {
	var c config
	if err := json.Unmarshal(configJSON, &c); err != nil {
		return nil, fmt.Errorf("config.json: %w", err)
	}
	if c.LoadConnections < 1 || c.SetupRepeats < 1 || c.ProbeRepeats < 1 {
		return nil, fmt.Errorf("config.json: connections, setup and probe repeats must be positive")
	}
	for name, w := range c.Workloads {
		if w.Backend != "mem" && w.Backend != "segment" {
			return nil, fmt.Errorf("workload %s: unknown backend %q", name, w.Backend)
		}
		if w.Backend == "segment" && w.Segment == nil {
			return nil, fmt.Errorf("workload %s: segment backend needs a segment section", name)
		}
		if w.Corpus.Shots < 1 || w.Corpus.Objects < 2 {
			return nil, fmt.Errorf("workload %s: corpus needs shots and at least 2 objects", name)
		}
		if w.Cycles < 1 {
			return nil, fmt.Errorf("workload %s: cycles must be at least 1", name)
		}
		// Shot batches change read answers, which the checker allows only
		// for reads that run beside the writes.
		switch w.Writes.Batch {
		case "note":
		case "shot":
			for _, p := range w.Phases {
				if p.Reads && !p.Writes {
					return nil, fmt.Errorf("workload %s: shot batches need every read phase to run beside the writes", name)
				}
			}
		default:
			return nil, fmt.Errorf("workload %s: writes.batch must be shot or note", name)
		}
		if w.Reads.Loop != "open" && w.Reads.Loop != "closed" {
			return nil, fmt.Errorf("workload %s: reads.loop must be open or closed", name)
		}
		if w.Writes.Loop != "open" && w.Writes.Loop != "closed" {
			return nil, fmt.Errorf("workload %s: writes.loop must be open or closed", name)
		}
		for _, m := range w.Reads.Mix {
			if _, ok := templates[m.Template]; !ok || m.Weight < 1 {
				return nil, fmt.Errorf("workload %s: bad mix entry %+v", name, m)
			}
		}
		total := 0.0
		for _, p := range w.Phases {
			if p.Reads && p.Writes && (w.Reads.Loop == "closed" || w.Writes.Loop == "closed") {
				return nil, fmt.Errorf("workload %s: a closed loop cannot share a phase with another stream", name)
			}
			total += p.Share
		}
		if total < 0.999 || total > 1.001 {
			return nil, fmt.Errorf("workload %s: phase shares sum to %g, want 1", name, total)
		}
	}
	return &c, nil
}

// phaseDuration is how long one run of phase ph lasts in a window of dur.
func (w workload) phaseDuration(ph phaseConfig, dur time.Duration) time.Duration {
	return time.Duration(ph.Share * float64(dur) / float64(w.Cycles))
}

func (c *config) clientTimeout() time.Duration {
	return time.Duration(c.ClientTimeoutMs) * time.Millisecond
}
