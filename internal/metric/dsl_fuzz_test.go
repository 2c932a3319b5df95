package metric

import (
	"math"
	"testing"
)

// FuzzParseDSL throws arbitrary expressions at the DSL parser. No input may
// panic, and an expression that parses must compute a finite value for any
// sequence of element updates and any container context.
func FuzzParseDSL(f *testing.F) {
	for _, expr := range []string{
		"sum(absdelta) * m / (sum(prev) * n)",
		"sqrt(sum(sqdelta) / m)",
		"max(absdelta)",
		"sum(absdelta) / (1 + sum(max))",
		"min(max(cur), -baselinesum) + abs(sum(delta)) - 1e308 * 1e308",
		"((m",
		"sum(bogus)",
		"max(1, 2",
		"1e",
	} {
		f.Add(expr, 1.5, -2.0, 3, 7, 10.0)
	}
	f.Add("sum(cur) / sum(prev)", math.Inf(1), math.NaN(), 0, 0, math.Inf(-1))

	f.Fuzz(func(t *testing.T, expr string, cur, prev float64, modified, total int, baseline float64) {
		factory, err := ParseDSL(expr)
		if err != nil {
			return // malformed input must fail cleanly, which it just did
		}
		m := factory()
		for i := 0; i < 3; i++ {
			m.Update(cur, prev)
			ctx := Context{Modified: modified, Total: total, BaselineSum: baseline}
			if v := m.Compute(ctx); math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%q computed %v after %d updates of (%v, %v) in %+v", expr, v, i+1, cur, prev, ctx)
			}
			cur, prev = prev*0.5, cur
		}
		m.Reset()
		if v := m.Compute(Context{}); math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("%q computed %v after Reset", expr, v)
		}
	})
}
