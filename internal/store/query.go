// Package store implements DIO's analysis backend: a document store in the
// style of Elasticsearch (§II-C) with JSON documents, a small query DSL,
// aggregations, bulk indexing, and the file-path correlation algorithm. It
// can be used in-process or through an HTTP server/client pair that mirrors
// how the paper's tracer ships events to a remote backend.
package store

import (
	"fmt"
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

// RangeQuery matches numeric fields within [GTE, LTE] (either bound may be
// nil).
type RangeQuery struct {
	Field string   `json:"field"`
	GTE   *float64 `json:"gte,omitempty"`
	LTE   *float64 `json:"lte,omitempty"`
	GT    *float64 `json:"gt,omitempty"`
	LT    *float64 `json:"lt,omitempty"`
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

// RangeGTE builds a range query with only a lower bound.
func RangeGTE(field string, gte float64) Query {
	return Query{Range: &RangeQuery{Field: field, GTE: &gte}}
}

// RangeBetween builds a range query with both bounds inclusive.
func RangeBetween(field string, gte, lte float64) Query {
	return Query{Range: &RangeQuery{Field: field, GTE: &gte, LTE: &lte}}
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

// contains reports whether f satisfies every bound of r. It is the single
// range-match implementation shared by the per-document evaluator below and
// the shard's columnar range scan, so the two cannot drift on bound
// semantics (GT/LT strict, GTE/LTE inclusive).
func (r *RangeQuery) contains(f float64) bool {
	if r.GTE != nil && f < *r.GTE {
		return false
	}
	if r.LTE != nil && f > *r.LTE {
		return false
	}
	if r.GT != nil && f <= *r.GT {
		return false
	}
	if r.LT != nil && f >= *r.LT {
		return false
	}
	return true
}

// fieldSource is any row representation the query evaluator can read: a
// materialized Document, or a shard slot whose typed event resolves fields
// on demand without building a map.
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
		f, ok := numeric(src.field(q.Range.Field))
		if !ok {
			return false
		}
		return q.Range.contains(f)
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

// numeric coerces JSON-ish scalar values to float64.
func numeric(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case float32:
		return float64(x), true
	case int:
		return float64(x), true
	case int32:
		return float64(x), true
	case int64:
		return float64(x), true
	case uint64:
		return float64(x), true
	case uint32:
		return float64(x), true
	case bool:
		if x {
			return 1, true
		}
		return 0, true
	default:
		return 0, false
	}
}

// valueEquals compares document and query values with numeric coercion, so
// that a query built in Go (int) matches a document decoded from JSON
// (float64).
func valueEquals(have, want any) bool {
	if hs, ok := have.(string); ok {
		ws, ok := want.(string)
		return ok && hs == ws
	}
	hf, hok := numeric(have)
	wf, wok := numeric(want)
	if hok && wok {
		return hf == wf
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
		if f, ok := numeric(v); ok {
			if f == float64(int64(f)) {
				return fmt.Sprintf("%d", int64(f))
			}
			return fmt.Sprintf("%g", f)
		}
		return fmt.Sprintf("%v", x)
	}
}
