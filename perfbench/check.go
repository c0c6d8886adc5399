package main

import (
	"encoding/json"
	"fmt"
	"hash/maphash"
	"sort"
	"strings"
	"sync"

	"videodb/internal/core"
)

// queryResp is the part of a /v1/query response the benchmark reads.
type queryResp struct {
	Columns []string        `json:"columns"`
	Rows    json.RawMessage `json:"rows"`
	Stats   struct {
		Rounds      int    `json:"rounds"`
		Derived     int    `json:"derived"`
		SolverSteps int64  `json:"solverSteps"`
		MemoHits    uint64 `json:"memoHits"`
		MemoMisses  uint64 `json:"memoMisses"`
	} `json:"stats"`
}

// checker holds the expected answer of every pooled query. Expected
// answers come from the generator's ground truth, or, for workloads with
// rules, from an independent in-process mem database loaded from the same
// script. Reads checked here run in phases without writes, and note
// batches touch no relation a read template reads, so one answer per
// query holds for the whole run.
type checker struct {
	want map[string]answer // by query text
	seed maphash.Seed

	mu       sync.Mutex
	verified map[string]uint64 // query text -> hash of a rows payload already checked in full
}

type answer struct {
	cols []string
	rows []string // sorted row keys
}

func newChecker() *checker {
	return &checker{want: map[string]answer{}, verified: map[string]uint64{}, seed: maphash.MakeSeed()}
}

// expectTruth records ground-truth answers over the archive.
func (ck *checker) expectTruth(c *corpus, qs []query) {
	for _, q := range qs {
		t := templates[q.tmpl]
		rows := t.truth(c, q, c.shots)
		sort.Strings(rows)
		ck.want[q.text] = answer{cols: t.cols, rows: rows}
	}
}

// expectOracle records the oracle database's answers.
func (ck *checker) expectOracle(db *core.DB, qs []query) error {
	for _, q := range qs {
		rs, err := db.Query(q.text)
		if err != nil {
			return fmt.Errorf("oracle %s: %w", q.text, err)
		}
		rows := make([]string, len(rs.Rows))
		for i, r := range rs.Rows {
			rows[i] = rowKey(r...)
		}
		sort.Strings(rows)
		cols := rs.Columns
		if cols == nil {
			cols = []string{}
		}
		ck.want[q.text] = answer{cols: cols, rows: rows}
	}
	return nil
}

// check compares a response with the expected answer. A payload that
// hashes the same as one already checked in full for the same query is
// accepted without re-sorting its rows.
func (ck *checker) check(q *query, r *queryResp) error {
	want, ok := ck.want[q.text]
	if !ok {
		return fmt.Errorf("no expected answer")
	}
	h := maphash.Bytes(ck.seed, r.Rows)
	ck.mu.Lock()
	prev, seen := ck.verified[q.text]
	ck.mu.Unlock()
	if seen && prev == h && equalStrings(r.Columns, want.cols) {
		return nil
	}
	got, err := rowKeys(r.Rows)
	if err != nil {
		return err
	}
	if err := sameRows(r.Columns, got, want); err != nil {
		return err
	}
	ck.mu.Lock()
	ck.verified[q.text] = h
	ck.mu.Unlock()
	return nil
}

// rowKeys renders a response's rows with rowKey's encoding.
func rowKeys(raw json.RawMessage) ([]string, error) {
	var rows [][]json.RawMessage
	if err := json.Unmarshal(raw, &rows); err != nil {
		return nil, fmt.Errorf("decode rows: %w", err)
	}
	keys := make([]string, len(rows))
	var sb strings.Builder
	for i, row := range rows {
		sb.Reset()
		for j, v := range row {
			if j > 0 {
				sb.WriteByte('\x1f')
			}
			sb.Write(v)
		}
		keys[i] = sb.String()
	}
	return keys, nil
}

func sameRows(cols, got []string, want answer) error {
	if !equalStrings(cols, want.cols) {
		return fmt.Errorf("columns %v, want %v", cols, want.cols)
	}
	sorted := append([]string(nil), got...)
	sort.Strings(sorted)
	if len(sorted) != len(want.rows) {
		return fmt.Errorf("%d rows, want %d", len(sorted), len(want.rows))
	}
	for i := range sorted {
		if sorted[i] != want.rows[i] {
			return fmt.Errorf("row %q not expected (first difference)", sorted[i])
		}
	}
	return nil
}

// checkBetween accepts a read that ran while batches were landing: every
// row must come from the archive or a batch sent before the answer
// arrived, and every row of the archive and of batches acknowledged
// before the request was sent must be present.
func checkBetween(cols []string, got []string, wantCols []string, lower, upper []string) error {
	if !equalStrings(cols, wantCols) {
		return fmt.Errorf("columns %v, want %v", cols, wantCols)
	}
	seen := make(map[string]bool, len(got))
	for _, k := range got {
		if seen[k] {
			return fmt.Errorf("duplicate row %q", k)
		}
		seen[k] = true
	}
	allowed := make(map[string]bool, len(upper))
	for _, k := range upper {
		allowed[k] = true
	}
	for _, k := range got {
		if !allowed[k] {
			return fmt.Errorf("row %q not expected", k)
		}
	}
	for _, k := range lower {
		if !seen[k] {
			return fmt.Errorf("row %q missing", k)
		}
	}
	return nil
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
