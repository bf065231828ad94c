// Package store implements DIO's analysis backend: a document store in the
// style of Elasticsearch (§II-C) with JSON documents, a small query DSL,
// aggregations, bulk indexing, and the file-path correlation algorithm. It
// can be used in-process or through an HTTP server/client pair that mirrors
// how the paper's tracer ships events to a remote backend.
package store

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Document is one indexed event (or any JSON-like object).
type Document map[string]any

// Query is a JSON-serializable query in a miniature Elasticsearch DSL.
// Exactly one field should be set; a zero Query matches everything.
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
	lo := satCeil(gte)
	return Query{Range: &RangeQuery{Field: field, GTE: &lo}}
}

// RangeBetween builds a range query with both bounds inclusive: it admits
// exactly the integers in [gte, lte].
func RangeBetween(field string, gte, lte float64) Query {
	lo, hi := satCeil(gte), satFloor(lte)
	return Query{Range: &RangeQuery{Field: field, GTE: &lo, LTE: &hi}}
}

// satFloor/satCeil convert a float bound to int64, saturating at the
// representable range.
func satFloor(f float64) int64 {
	if f <= math.MinInt64 {
		return math.MinInt64
	}
	if f >= math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(math.Floor(f))
}

func satCeil(f float64) int64 {
	if f <= math.MinInt64 {
		return math.MinInt64
	}
	if f >= math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(math.Ceil(f))
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

// matchesAll reports whether the query matches every document (zero query
// or explicit match_all), letting evaluation skip per-document checks.
func (q Query) matchesAll() bool {
	return q.Term == nil && q.Terms == nil && q.Range == nil &&
		q.Prefix == nil && q.Exists == nil && q.Bool == nil
}

// boolOnly reports whether q's bool is the clause it is evaluated by: the
// evaluator reads the first clause set, in the order Term, Terms, Range,
// Prefix, Exists, Bool, so a bool beside any other clause is ignored.
func (q Query) boolOnly() bool {
	return q.Bool != nil && q.Term == nil && q.Terms == nil &&
		q.Range == nil && q.Prefix == nil && q.Exists == nil
}

// contains reports whether v satisfies every bound of r. It is the single
// range-match implementation shared by the per-document evaluator below and
// the shard's range scan (rangeScan), so the two cannot drift on bound
// semantics (GT/LT strict, GTE/LTE inclusive).
func (r *RangeQuery) contains(v int64) bool {
	if r.GTE != nil && v < *r.GTE {
		return false
	}
	if r.LTE != nil && v > *r.LTE {
		return false
	}
	if r.GT != nil && v <= *r.GT {
		return false
	}
	if r.LT != nil && v >= *r.LT {
		return false
	}
	return true
}

// fieldSource is any row representation the query evaluator can read: a
// materialized Document, or a stored Row, which resolves each name it is
// asked for against the schema table (fieldTable) without building a map.
type fieldSource interface {
	// field returns the document-view value of the named field (nil when
	// absent).
	field(name string) any
}

func (d Document) field(name string) any { return d[name] }

// Matches evaluates the query against doc.
func (q Query) Matches(doc Document) bool { return q.matches(doc) }

// matches evaluates the query against any row representation.
func (q Query) matches(src fieldSource) bool {
	switch {
	case q.Term != nil:
		return valueEquals(src.field(q.Term.Field), q.Term.Value)
	case q.Terms != nil:
		v := src.field(q.Terms.Field)
		for _, want := range q.Terms.Values {
			if valueEquals(v, want) {
				return true
			}
		}
		return false
	case q.Range != nil:
		n, ok := intOf(src.field(q.Range.Field))
		return ok && q.Range.contains(n)
	case q.Prefix != nil:
		s, ok := src.field(q.Prefix.Field).(string)
		return ok && strings.HasPrefix(s, q.Prefix.Value)
	case q.Exists != nil:
		v := src.field(q.Exists.Field)
		if v == nil {
			return false
		}
		if s, isStr := v.(string); isStr && s == "" {
			return false
		}
		return true
	case q.Bool != nil:
		for _, sub := range q.Bool.Must {
			if !sub.matches(src) {
				return false
			}
		}
		for _, sub := range q.Bool.MustNot {
			if sub.matches(src) {
				return false
			}
		}
		if len(q.Bool.Should) > 0 {
			any := false
			for _, sub := range q.Bool.Should {
				if sub.matches(src) {
					any = true
					break
				}
			}
			if !any {
				return false
			}
		}
		return true
	default:
		return true // zero query and match_all behave alike
	}
}

// intOf coerces a scalar to the store's one numeric domain, int64: the int
// kinds, a bool as 0/1, a json.Number written as an integer, and a float
// only when it is integral and in range. Anything else is not a number.
func intOf(v any) (int64, bool) {
	switch x := v.(type) {
	case int64:
		return x, true
	case int:
		return int64(x), true
	case int32:
		return int64(x), true
	case uint32:
		return int64(x), true
	case uint64:
		return int64(x), x <= math.MaxInt64
	case bool:
		if x {
			return 1, true
		}
		return 0, true
	case json.Number:
		n, err := strconv.ParseInt(string(x), 10, 64)
		return n, err == nil
	case float64:
		if x != math.Trunc(x) || x < math.MinInt64 || x >= math.MaxInt64 {
			return 0, false
		}
		return int64(x), true
	default:
		return 0, false
	}
}

// valueEquals compares document and query values with integer coercion, so
// that a query built in Go (int) matches a document field (int64) and a
// value decoded from JSON (json.Number).
func valueEquals(have, want any) bool {
	if hs, ok := have.(string); ok {
		ws, ok := want.(string)
		return ok && hs == ws
	}
	hn, hok := intOf(have)
	wn, wok := intOf(want)
	if hok && wok {
		return hn == wn
	}
	return fmt.Sprintf("%v", have) == fmt.Sprintf("%v", want)
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
