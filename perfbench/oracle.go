package main

// Oracles. The division oracle reads the generated database text with
// its own parser and divides with maps; it shares no code with the
// engine. The adhoc-small oracle is the materialized reference
// evaluators (ra.Eval, sa.Eval), run before timing starts.

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"sort"
	"strconv"

	"radiv/internal/parser"
	"radiv/internal/ra"
	"radiv/internal/rel"
	"radiv/internal/sa"
)

type digest = [sha256.Size]byte

// divisionOracle computes R ÷ S under containment semantics from the
// database text: the A values of R whose B-set holds every S value.
// It returns the quotient in increasing order and S's values.
func divisionOracle(text []byte) (quotient, divisor []int64, err error) {
	var rows [][2]int64
	for lineno, line := range bytes.Split(text, []byte("\n")) {
		if len(line) == 0 || line[0] == '@' {
			continue
		}
		name, vals, ok := bytes.Cut(line, []byte(" "))
		if !ok {
			return nil, nil, fmt.Errorf("oracle: line %d: %q", lineno+1, line)
		}
		switch string(name) {
		case "R":
			a, b, ok := bytes.Cut(vals, []byte(","))
			if !ok {
				return nil, nil, fmt.Errorf("oracle: line %d: %q", lineno+1, line)
			}
			av, err1 := strconv.ParseInt(string(a), 10, 64)
			bv, err2 := strconv.ParseInt(string(b), 10, 64)
			if err1 != nil || err2 != nil {
				return nil, nil, fmt.Errorf("oracle: line %d: %q", lineno+1, line)
			}
			rows = append(rows, [2]int64{av, bv})
		case "S":
			v, err := strconv.ParseInt(string(vals), 10, 64)
			if err != nil {
				return nil, nil, fmt.Errorf("oracle: line %d: %q", lineno+1, line)
			}
			divisor = append(divisor, v)
		}
	}
	bit := map[int64]uint64{}
	for _, v := range divisor {
		if _, dup := bit[v]; !dup {
			bit[v] = 1 << len(bit)
		}
	}
	if len(bit) > 64 {
		return nil, nil, fmt.Errorf("oracle: divisor of %d values exceeds 64", len(bit))
	}
	full := uint64(1)<<len(bit) - 1
	held := map[int64]uint64{}
	for _, r := range rows {
		held[r[0]] |= bit[r[1]]
	}
	for a, m := range held {
		if m == full {
			quotient = append(quotient, a)
		}
	}
	sort.Slice(quotient, func(i, j int) bool { return quotient[i] < quotient[j] })
	return quotient, divisor, nil
}

// appendUnary appends unary integer rows in the engine's printed form,
// one "(v)" per line.
func appendUnary(dst []byte, vs []int64) []byte {
	for _, v := range vs {
		dst = append(dst, '(')
		dst = strconv.AppendInt(dst, v, 10)
		dst = append(dst, ')', '\n')
	}
	return dst
}

// referenceDigest evaluates a query with the materialized reference
// evaluator and digests its printed result.
func referenceDigest(q query, store rel.ReadStore) (digest, error) {
	var res *rel.Relation
	if q.sa {
		e, err := parser.ParseSA(q.text, store.Schema())
		if err != nil {
			return digest{}, err
		}
		res = sa.Eval(e, store)
	} else {
		e, err := parser.ParseRA(q.text, store.Schema())
		if err != nil {
			return digest{}, err
		}
		res = ra.Eval(e, store)
	}
	return sha256.Sum256([]byte(res.String())), nil
}
