package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"videodb/internal/interval"
	"videodb/internal/object"
	"videodb/internal/store"
	"videodb/internal/video"
)

// shotRec is one shot as the benchmark's ground truth sees it.
type shotRec struct {
	oid  string
	span interval.Generalized
	objs []string // ascending object order, as the generator lists them
}

// batch is one /v1/script payload. A shot batch is in the shape of
// videogen -stream: the shot's interval plus its appears_with facts. A
// note batch only asserts note(N, O, S) facts about an archived shot, so
// it changes no answer of any read template.
type batch struct {
	oid    string // names the batch on the subscription and in checks
	script string
	object bool         // the batch puts an interval object named oid
	facts  []store.Fact // facts the batch asserts
	shot   shotRec      // shot batches: the ingested shot
}

// corpus is everything a run derives from its seed before the program
// starts: the base archive, the rules, the ingest stream, and the query
// pools with their expected answers.
type corpus struct {
	script   string // base archive as VQL
	rules    string // §6 rules ("" when the workload has none)
	duration float64
	objects  []string
	shots    []shotRec
	occ      map[string]interval.Generalized
	live     []batch // streamed during the run, in order
	probes   []batch // applied in-process by the traced run only
	pools    map[string][]query
}

// query is one concrete request of a template.
type query struct {
	tmpl string
	text string
	a, b string  // object arguments (probe, member)
	lo   float64 // window bounds
	hi   float64
}

// template names every query shape a workload can mix.
type template struct {
	pool func(c *corpus, rng *rand.Rand) query
	// truth gives the expected rows of q over the given shots; nil means
	// the answer comes from the oracle database instead.
	truth func(c *corpus, q query, shots []shotRec) []string
	cols  []string
}

const poolSize = 16

var templates = map[string]template{
	"probe": {
		pool: func(c *corpus, rng *rand.Rand) query {
			i, j := distinctPair(rng, len(c.objects))
			a, b := c.objects[i], c.objects[j]
			return query{text: fmt.Sprintf("?- appears_with(%s, %s, S).", a, b), a: a, b: b}
		},
		truth: func(c *corpus, q query, shots []shotRec) []string {
			var rows []string
			for _, s := range shots {
				if has(s.objs, q.a) && has(s.objs, q.b) {
					rows = append(rows, rowKey(ref(s.oid)))
				}
			}
			return rows
		},
		cols: []string{"S"},
	},
	"member": {
		pool: func(c *corpus, rng *rand.Rand) query {
			a := c.objects[rng.Intn(len(c.objects))]
			return query{text: fmt.Sprintf("?- Interval(G), %s in G.entities.", a), a: a}
		},
		truth: func(c *corpus, q query, shots []shotRec) []string {
			var rows []string
			for _, s := range shots {
				if has(s.objs, q.a) {
					rows = append(rows, rowKey(ref(s.oid)))
				}
			}
			if !c.occ[q.a].IsEmpty() {
				rows = append(rows, rowKey(ref("occ_"+q.a)))
			}
			return rows
		},
		cols: []string{"G"},
	},
	"window": {
		pool: func(c *corpus, rng *rand.Rand) query {
			lo := float64(rng.Intn(int(c.duration) - 60))
			return query{
				text: fmt.Sprintf("?- Interval(G), G.duration => (t > %g and t < %g).", lo, lo+60),
				lo:   lo, hi: lo + 60,
			}
		},
		truth: func(c *corpus, q query, shots []shotRec) []string {
			w := interval.New(interval.Open(q.lo, q.hi))
			var rows []string
			for _, s := range shots {
				if w.ContainsGen(s.span) {
					rows = append(rows, rowKey(ref(s.oid)))
				}
			}
			for _, o := range c.objects {
				if g := c.occ[o]; !g.IsEmpty() && w.ContainsGen(g) {
					rows = append(rows, rowKey(ref("occ_"+o)))
				}
			}
			return rows
		},
		cols: []string{"G"},
	},
	"scan": {
		pool: fixed("?- appears_with(A, B, S)."),
		truth: func(c *corpus, q query, shots []shotRec) []string {
			var rows []string
			for _, s := range shots {
				for i := range s.objs {
					for j := i + 1; j < len(s.objs); j++ {
						rows = append(rows, rowKey(ref(s.objs[i]), ref(s.objs[j]), ref(s.oid)))
					}
				}
			}
			return rows
		},
		cols: []string{"A", "B", "S"},
	},
	"selfjoin": {
		pool: fixed("?- appears_with(A, B, S), appears_with(B, C, S)."),
		truth: func(c *corpus, q query, shots []shotRec) []string {
			var rows []string
			for _, s := range shots {
				n := len(s.objs)
				for i := 0; i < n; i++ {
					for j := i + 1; j < n; j++ {
						for k := j + 1; k < n; k++ {
							rows = append(rows, rowKey(ref(s.objs[i]), ref(s.objs[j]), ref(s.oid), ref(s.objs[k])))
						}
					}
				}
			}
			return rows
		},
		cols: []string{"A", "B", "S", "C"},
	},
	"inside": {pool: fixed("?- inside(S, O).")},
	"reach":  {pool: fixed("?- reach(A, B).")},
	"cross":  {pool: fixed("?- cross(A, B).")},
	"clip":   {pool: fixed("?- clip(G).")},
}

func fixed(text string) func(*corpus, *rand.Rand) query {
	return func(*corpus, *rand.Rand) query { return query{text: text} }
}

// rulesVQL is the §6 rule set of temporal_analytics: a => containment
// rule, an Allen overlaps rule, a recursive co-occurrence closure and a
// constructive ⊕ rule. The ⊕ rule stitches a shot of one object to the
// shot of another that it meets; a chain ends at the first shot without
// the second object, so evaluation is bounded.
const rulesVQL = `inside(S, O) :- Interval(S), Interval(O), S.kind = "shot", O.kind = "occurrence", S.duration => O.duration.
cross(G1, G2) :- Interval(G1), Interval(G2), G1.kind = "occurrence", G2.kind = "occurrence", G1 != G2, G1.duration overlaps G2.duration.
co(A, B) :- appears_with(A, B, S).
reach(A, B) :- co(A, B).
reach(A, C) :- reach(A, B), co(B, C).
clip(G1 + G2) :- Interval(G1), Interval(G2), G1.kind = "shot", G2.kind = "shot", %s in G1.entities, %s in G2.entities, G1.duration meets G2.duration.
`

// buildCorpus derives every input of a run from the seed. nWrites is how
// many ingest batches the run may post.
func buildCorpus(w workload, seed int64, nWrites int) (*corpus, error) {
	seq := generateShots(seed, "archive", 25, w.Corpus.Shots, w.Corpus.Objects)
	var script bytes.Buffer
	if err := video.WriteVQL(&script, seq); err != nil {
		return nil, err
	}
	c := &corpus{
		script:   script.String(),
		duration: seq.Duration(),
		objects:  seq.Objects(),
		occ:      seq.Occurrences,
		pools:    map[string][]query{},
	}
	for i := range seq.Shots {
		c.shots = append(c.shots, shotRec{
			oid:  fmt.Sprintf("shot%04d", i),
			span: interval.New(seq.ShotSpan(i)),
			objs: seq.ShotObjects(i),
		})
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	if w.Rules {
		i, j := distinctPair(rng, len(c.objects))
		c.rules = fmt.Sprintf(rulesVQL, c.objects[i], c.objects[j])
	}

	const nProbe = 16
	if w.Writes.Batch == "note" {
		c.live, c.probes = noteBatches(c, "note", nWrites), noteBatches(c, "pnote", nProbe)
	} else if err := c.addShotBatches(w, seed, nWrites, nProbe); err != nil {
		return nil, err
	}

	names := make([]string, 0, len(templates))
	for name := range templates {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		seen := map[string]bool{}
		for k := 0; k < poolSize; k++ {
			q := templates[name].pool(c, rng)
			q.tmpl = name
			if !seen[q.text] {
				seen[q.text] = true
				c.pools[name] = append(c.pools[name], q)
			}
		}
	}
	return c, nil
}

// generateShots generates a sequence of exactly n shots at fps frames per
// second. video.Generate cuts the timeline into shots before it draws
// anything else, so a second generation that ends at the n-th cut starts
// with the same n shots.
func generateShots(seed int64, name string, fps float64, n, objects int) *video.Sequence {
	cfg := video.GenConfig{Seed: seed, Name: name, FPS: fps, NumObjects: objects,
		DurationSec: float64(n)*6*1.5 + 6} // shots last 3 to 9 s
	end := video.Generate(cfg).Shots[n-1].End
	cfg.DurationSec = (float64(end) + 0.5) / fps
	return video.Generate(cfg)
}

// liveShotPool is how many candidate shots the ingest stream draws from
// per posted batch. The candidates are generated at liveFPS, not the
// archive's 25, to keep the generator's frame data small.
const (
	liveShotPool = 4
	liveFPS      = 5
)

// addShotBatches makes the ingest stream of shot batches in the shape of
// videogen -stream: each continues the archive's timeline with a fresh
// shot of a second sequence, named live%05d (probe%05d for the traced
// run's in-process batches) so it never collides with the archive.
//
// A batch's cost grows with its shot's object count, which varies widely
// between shots, and a run posts few batches. So every seed posts the
// same profile of object counts, in the same order: the profile is read
// off a reference sequence of a fixed seed at evenly spaced ranks, and
// the seed only picks which of its own shots fill each slot.
func (c *corpus) addShotBatches(w workload, seed int64, nWrites, nProbe int) error {
	need := nWrites + nProbe
	refSeq := generateShots(0, "profile", liveFPS, need*liveShotPool, w.Corpus.Objects)
	var counts []int
	for i := range refSeq.Shots {
		counts = append(counts, len(refSeq.ShotObjects(i)))
	}
	sort.Ints(counts)
	profile := make([]int, need)
	for i := range profile {
		profile[i] = counts[(2*i+1)*len(counts)/(2*need)]
	}
	rand.New(rand.NewSource(1)).Shuffle(need, func(i, j int) { profile[i], profile[j] = profile[j], profile[i] })

	liveSeq := generateShots(seed+7919, "live", liveFPS, need*liveShotPool, w.Corpus.Objects)
	byCount := map[int][]int{} // object count -> unused shots, in sequence order
	for i := range liveSeq.Shots {
		k := len(liveSeq.ShotObjects(i))
		byCount[k] = append(byCount[k], i)
	}
	picked := make([]int, need)
	for i, k := range profile {
		// The nearest count that still has a shot; the pool is several
		// times larger than the stream, so this is nearly always k.
		for d := 0; ; d++ {
			if d > w.Corpus.Objects {
				return fmt.Errorf("live sequence has too few shots for %d batches", need)
			}
			if pool := byCount[k-d]; len(pool) > 0 {
				picked[i], byCount[k-d] = pool[0], pool[1:]
				break
			}
			if pool := byCount[k+d]; d > 0 && len(pool) > 0 {
				picked[i], byCount[k+d] = pool[0], pool[1:]
				break
			}
		}
	}

	at := c.duration
	for i, si := range picked {
		prefix, n := "live", i
		if i >= nWrites {
			prefix, n = "probe", i-nWrites
		}
		span := interval.New(liveSeq.ShotSpan(si))
		span = span.Shift(at - span.Min())
		at += span.Duration()
		s := shotRec{
			oid:  fmt.Sprintf("%s%05d", prefix, n),
			span: span,
			objs: liveSeq.ShotObjects(si),
		}
		b := batch{oid: s.oid, object: true, shot: s}
		var sb strings.Builder
		fmt.Fprintf(&sb, "interval %s { duration: %s, entities: {%s}, kind: \"shot\" }.\n",
			s.oid, strings.ReplaceAll(s.span.String(), " ∪ ", " + "), strings.Join(s.objs, ", "))
		for x := range s.objs {
			for y := x + 1; y < len(s.objs); y++ {
				fmt.Fprintf(&sb, "appears_with(%s, %s, %s).\n", s.objs[x], s.objs[y], s.oid)
				b.facts = append(b.facts, store.NewFact("appears_with", ref(s.objs[x]), ref(s.objs[y]), ref(s.oid)))
			}
		}
		b.script = sb.String()
		if i < nWrites {
			c.live = append(c.live, b)
		} else {
			c.probes = append(c.probes, b)
		}
	}
	return nil
}

// noteBatches makes n note batches, one per archived shot that shows at
// least one object, cycling through the archive.
func noteBatches(c *corpus, prefix string, n int) []batch {
	var out []batch
	for k := 0; len(out) < n; k++ {
		s := c.shots[k%len(c.shots)]
		if len(s.objs) == 0 {
			continue
		}
		b := batch{oid: fmt.Sprintf("%s%05d", prefix, len(out))}
		var sb strings.Builder
		for _, o := range s.objs {
			fmt.Fprintf(&sb, "note(%s, %s, %s).\n", b.oid, o, s.oid)
			b.facts = append(b.facts, store.NewFact("note", ref(b.oid), ref(o), ref(s.oid)))
		}
		b.script = sb.String()
		out = append(out, b)
	}
	return out
}

func distinctPair(rng *rand.Rand, n int) (int, int) {
	i := rng.Intn(n - 1)
	j := i + 1 + rng.Intn(n-1-i)
	return i, j
}

func has(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func ref(oid string) object.Value { return object.Ref(object.OID(oid)) }

// rowKey renders a row exactly as the server's JSON encoder writes its
// values, joined by a separator no encoded value contains.
func rowKey(vals ...object.Value) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		b, err := json.Marshal(v)
		if err != nil {
			panic(err) // object.Value always encodes
		}
		parts[i] = string(b)
	}
	return strings.Join(parts, "\x1f")
}
