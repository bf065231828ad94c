// Package store implements DIO's analysis backend: a document store in the
// style of Elasticsearch (§II-C) with JSON documents, a small query DSL,
// aggregations, bulk indexing, and the file-path correlation algorithm. It
// can be used in-process or through an HTTP server/client pair that mirrors
// how the paper's tracer ships events to a remote backend.
//
// This file holds the query DSL, as it travels in JSON, and its compiled
// form: a request compiles its Query once, against the schema table, and
// every stage of its execution reads the compiled clauses.
package store

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"

	"github.com/dsrhaslab/dio-go/internal/event"
)

// Document is one event as JSON carries it: a hit of a JSON search
// response, a line of an NDJSON bulk body (EventToDoc).
type Document map[string]any

// Query is a JSON-serializable query in a miniature Elasticsearch DSL.
// One field should be set; where more are, the first in field order counts
// (compileQuery), and a zero Query matches everything.
type Query struct {
	Term     *TermQuery   `json:"term,omitempty"`
	Terms    *TermsQuery  `json:"terms,omitempty"`
	Range    *RangeQuery  `json:"range,omitempty"`
	Prefix   *PrefixQuery `json:"prefix,omitempty"`
	Exists   *ExistsQuery `json:"exists,omitempty"`
	Bool     *BoolQuery   `json:"bool,omitempty"`
	MatchAll bool         `json:"match_all,omitempty"`
}

// TermQuery matches documents whose field equals value exactly.
type TermQuery struct {
	Field string `json:"field"`
	Value any    `json:"value"`
}

// TermsQuery matches documents whose field equals any of the values.
type TermsQuery struct {
	Field  string `json:"field"`
	Values []any  `json:"values"`
}

// RangeQuery matches integer fields within its bounds (any may be nil):
// GTE/LTE inclusive, GT/LT strict. Every event field is an integer, so the
// bounds are too: a JSON bound that is not an integer literal (1.5, 1e18)
// fails to decode.
type RangeQuery struct {
	Field string `json:"field"`
	GTE   *int64 `json:"gte,omitempty"`
	LTE   *int64 `json:"lte,omitempty"`
	GT    *int64 `json:"gt,omitempty"`
	LT    *int64 `json:"lt,omitempty"`
}

// PrefixQuery matches string fields starting with Value.
type PrefixQuery struct {
	Field string `json:"field"`
	Value string `json:"value"`
}

// ExistsQuery matches documents that have a non-empty value for Field.
type ExistsQuery struct {
	Field string `json:"field"`
}

// BoolQuery combines queries with must/should/must-not semantics.
type BoolQuery struct {
	Must    []Query `json:"must,omitempty"`
	Should  []Query `json:"should,omitempty"`
	MustNot []Query `json:"must_not,omitempty"`
}

// Helper constructors keep call sites concise.

// Term builds a term query.
func Term(field string, value any) Query {
	return Query{Term: &TermQuery{Field: field, Value: value}}
}

// Terms builds a terms query.
func Terms(field string, values ...any) Query {
	return Query{Terms: &TermsQuery{Field: field, Values: values}}
}

// RangeGTE builds a range query with only a lower bound: it admits exactly
// the integers at or above gte.
func RangeGTE(field string, gte float64) Query {
	lo := satInt(math.Ceil(gte))
	return Query{Range: &RangeQuery{Field: field, GTE: &lo}}
}

// RangeBetween builds a range query with both bounds inclusive: it admits
// exactly the integers in [gte, lte].
func RangeBetween(field string, gte, lte float64) Query {
	lo, hi := satInt(math.Ceil(gte)), satInt(math.Floor(lte))
	return Query{Range: &RangeQuery{Field: field, GTE: &lo, LTE: &hi}}
}

// satInt converts an integral float bound to int64, saturating at the
// representable range.
func satInt(f float64) int64 {
	switch {
	case f <= math.MinInt64:
		return math.MinInt64
	case f >= math.MaxInt64:
		return math.MaxInt64
	}
	return int64(f)
}

// Prefix builds a prefix query.
func Prefix(field, value string) Query {
	return Query{Prefix: &PrefixQuery{Field: field, Value: value}}
}

// Exists builds an exists query.
func Exists(field string) Query {
	return Query{Exists: &ExistsQuery{Field: field}}
}

// MatchAll matches every document.
func MatchAll() Query { return Query{MatchAll: true} }

// Must combines queries conjunctively.
func Must(qs ...Query) Query {
	return Query{Bool: &BoolQuery{Must: qs}}
}

// MustNot builds a negation query.
func MustNot(qs ...Query) Query {
	return Query{Bool: &BoolQuery{MustNot: qs}}
}

// interval returns the integers r admits as [lo, hi], both inclusive (GT
// and LT strict, GTE and LTE inclusive); lo > hi when it admits none.
func (r *RangeQuery) interval() (lo, hi int64) {
	if r.GT != nil && *r.GT == math.MaxInt64 || r.LT != nil && *r.LT == math.MinInt64 {
		return math.MaxInt64, math.MinInt64
	}
	lo, hi = math.MinInt64, math.MaxInt64
	if r.GTE != nil {
		lo = *r.GTE
	}
	if r.GT != nil {
		lo = max(lo, *r.GT+1)
	}
	if r.LTE != nil {
		hi = *r.LTE
	}
	if r.LT != nil {
		hi = min(hi, *r.LT-1)
	}
	return lo, hi
}

// A Query is compiled once per request (compileQuery), against the schema
// table, into a tree of clauses; the row predicate, the shard's planner
// (matchIDs), the time window a cold segment is pruned by (timeBounds), the
// runs a search builds (rangeFields, sortWalkOf) and the read view all read
// that tree, and none reads the Query. The compile is the one place that
// says which clause of a Query counts: the first one set, in the order Term,
// Terms, Range, Prefix, Exists, Bool, so a bool beside another clause is
// ignored. With none set, or only match_all, the query is an empty bool,
// which matches every row.

// clauseOp is what a compiled clause tests.
type clauseOp uint8

const (
	opBool   clauseOp = iota // must, must_not and should; empty, every row
	opTerm                   // the field equals one of the values (a term or terms query)
	opRange                  // the field is an integer in [lo, hi]
	opPrefix                 // the field is a string starting with prefix
	opExists                 // the field holds a value, and not ""
)

// clause is one compiled clause: its field resolved to its table entry and
// its values typed once, in the field's own domain, so that a row is tested
// by reading the packed row through the entry and comparing unboxed values.
type clause struct {
	op     clauseOp
	name   string // the field's name, which posting lists and runs are keyed by
	f      *fieldDef
	strs   []string        // opTerm on a string slot: the values
	tags   []event.FileTag // opTerm on file_tag: the values that render back to themselves
	nums   []int64         // opTerm on an integer field: the values
	orNil  bool            // opTerm: a nil value, which a row lacking the field equals
	lo, hi int64           // opRange: the interval (RangeQuery.interval)
	prefix string          // opPrefix

	must, should, mustNot []clause // opBool
}

// compileQuery compiles q once, for one request, into a bool: the query's
// own, or one whose must list is its one clause. The must list is then the
// clauses every match satisfies, which the planner reads. Each cluster node
// compiles the Query it was sent: the wire form is the Query's JSON.
func compileQuery(q Query) *clause {
	c := compileClause(q)
	if c.op != opBool {
		c = clause{must: []clause{c}}
	}
	return &c
}

// all reports whether bool c matches every row.
func (c *clause) all() bool { return len(c.must)+len(c.should)+len(c.mustNot) == 0 }

func compileClause(q Query) clause {
	switch {
	case q.Term != nil:
		return compileTerm(q.Term.Field, []any{q.Term.Value})
	case q.Terms != nil:
		return compileTerm(q.Terms.Field, q.Terms.Values)
	case q.Range != nil:
		c := clause{op: opRange, name: q.Range.Field, f: fieldOf(q.Range.Field)}
		c.lo, c.hi = q.Range.interval()
		return c
	case q.Prefix != nil:
		return clause{op: opPrefix, name: q.Prefix.Field, f: fieldOf(q.Prefix.Field), prefix: q.Prefix.Value}
	case q.Exists != nil:
		return clause{op: opExists, name: q.Exists.Field, f: fieldOf(q.Exists.Field)}
	case q.Bool != nil:
		return clause{must: compileList(q.Bool.Must), should: compileList(q.Bool.Should), mustNot: compileList(q.Bool.MustNot)}
	}
	return clause{}
}

func compileList(qs []Query) []clause {
	out := make([]clause, len(qs))
	for i, q := range qs {
		out[i] = compileClause(q)
	}
	return out
}

// compileTerm types a term's values in the field's domain. A string field
// equals a string. file_tag equals the string its tag renders as, so a
// string is parsed to the tag once, here, and kept only when the tag renders
// back to it: a row's packed tag is then compared in place, and a malformed
// or non-canonical string, which no tag renders as, matches nothing. An
// integer field equals a value intOf accepts and the decimal string of the
// integer; has_offset, read as 0/1, equals those and "true" and "false". A
// nil value equals a row that lacks the field. Any other value equals
// nothing, and is dropped here.
func compileTerm(name string, vals []any) clause {
	c := clause{op: opTerm, name: name, f: fieldOf(name)}
	for _, v := range vals {
		s, isStr := v.(string)
		switch {
		case v == nil:
			c.orNil = true
		case c.f.kind == tagKind:
			if isStr {
				if tag, err := event.ParseFileTag(s); err == nil && tag.String() == s {
					c.tags = append(c.tags, tag)
				}
			}
		case c.f.isString():
			if isStr {
				c.strs = append(c.strs, s)
			}
		case !isStr:
			if n, ok := intOf(v); ok {
				c.nums = append(c.nums, n)
			}
		case c.f.kind == flagKind:
			switch s {
			case "true":
				c.nums = append(c.nums, 1)
			case "false":
				c.nums = append(c.nums, 0)
			}
		default:
			if n, err := strconv.ParseInt(s, 10, 64); err == nil && strconv.FormatInt(n, 10) == s {
				c.nums = append(c.nums, n)
			}
		}
	}
	return c
}

// seedTerm returns the term c requires of an indexed keyword field, whose
// posting list holds c's matches: ok only for a term clause on such a field
// with one string value.
func (c *clause) seedTerm() (term string, ok bool) {
	if c.op == opTerm && c.f.indexed() && len(c.strs) == 1 {
		return c.strs[0], true
	}
	return "", false
}

// match reports whether row w satisfies c.
func (c *clause) match(w Row) bool {
	switch c.op {
	case opTerm:
		if c.f.kind == tagKind {
			if w.r.FileTag.Zero() {
				return c.orNil
			}
			return slices.Contains(c.tags, w.r.FileTag)
		}
		if s, ok := c.f.str(w); ok {
			return slices.Contains(c.strs, s)
		}
		if n, ok := c.f.read(w.r); ok {
			return slices.Contains(c.nums, n)
		}
		return c.orNil
	case opRange:
		n, ok := c.f.read(w.r)
		return ok && c.lo <= n && n <= c.hi
	case opPrefix:
		s, ok := c.f.str(w)
		return ok && strings.HasPrefix(s, c.prefix)
	case opExists:
		if c.f.kind == tagKind { // the tag's presence, without rendering it
			return !w.r.FileTag.Zero()
		}
		s, isStr := c.f.str(w)
		_, isNum := c.f.read(w.r)
		return isStr && s != "" || isNum
	case opBool:
		for i := range c.must {
			if !c.must[i].match(w) {
				return false
			}
		}
		return c.tail(w)
	}
	return true
}

// tail reports whether w satisfies what bool c asks beyond its must list:
// no must_not clause, and a should clause when there are any.
func (c *clause) tail(w Row) bool {
	for i := range c.mustNot {
		if c.mustNot[i].match(w) {
			return false
		}
	}
	for i := range c.should {
		if c.should[i].match(w) {
			return true
		}
	}
	return len(c.should) == 0
}

// intOf coerces a scalar to the store's one numeric domain, int64: any Go
// integer (an unsigned one when it fits), a bool as 0/1, a json.Number
// written as an integer, and a float only when it is integral and in range.
// Anything else is not a number.
func intOf(v any) (int64, bool) {
	switch x := v.(type) {
	case bool:
		if x {
			return 1, true
		}
		return 0, true
	case json.Number:
		n, err := strconv.ParseInt(string(x), 10, 64)
		return n, err == nil
	}
	switch x := reflect.ValueOf(v); {
	case x.CanInt():
		return x.Int(), true
	case x.CanUint() && x.Uint() <= math.MaxInt64:
		return int64(x.Uint()), true
	case x.CanFloat():
		if f := x.Float(); f == math.Trunc(f) && f >= math.MinInt64 && f < math.MaxInt64 {
			return int64(f), true
		}
	}
	return 0, false
}

// keyString renders any scalar as a stable bucket key.
func keyString(v any) string {
	switch x := v.(type) {
	case string:
		return x
	case nil:
		return ""
	default:
		if n, ok := intOf(v); ok {
			return strconv.FormatInt(n, 10)
		}
		return fmt.Sprintf("%v", x)
	}
}
