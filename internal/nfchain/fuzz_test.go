package nfchain

import (
	"testing"

	"sgxnet/internal/core"
)

// FuzzChainRules fuzzes the rule-grammar trust boundary: operator-
// supplied rule text crosses into the enclave, so the parser must never
// panic, never exceed the table bound, must agree with the reference
// parser (rule for rule, or error text for error text), and anything it
// does accept must compile into an engine that terminates, charges
// exactly CostRuleEval per examined rule, and agrees with the reference
// evaluator's whole-table walk at every stage (verdict for verdict and
// charge for charge). The checked-in corpus covers the interesting
// shapes: a genuine table, a table-bound overflow, a duplicate rule, an
// unknown action, a routing cycle, ASCII and Unicode separators, a
// non-ASCII stage name, an eight-field line and one predicate at two
// stages.
func FuzzChainRules(f *testing.F) {
	f.Add("at classify match dst=23 -> drop\nat dpi match tag=malware -> drop\n")
	f.Add("at classify match flow=4294967296 -> drop")
	f.Add("at dpi match * -> forward:classify")
	f.Add("at classify match proto=6,proto=6 -> terminate")
	f.Add("at classify match * -> mirror:\x00")
	f.Add("# comment only\n\n   \n")
	f.Add("at dpi match tag=tls,dst=2 -> drop\nat dpi match dst=2,tag=tls -> drop")
	f.Add("at dpi match * -> drop\r\nat dpi match flow=0,src=0 -> drop\n")
	f.Fuzz(func(t *testing.T, text string) {
		parsersAgree(t, text)
		rules, err := Parse(text)
		if err != nil {
			return
		}
		if len(rules) > MaxRules {
			t.Fatalf("Parse returned %d rules past the %d bound", len(rules), MaxRules)
		}
		rs, err := Compile(rules, testStages)
		if err != nil {
			return
		}
		m := core.NewMeter()
		pkt := Packet{Flow: 1, SrcPort: 40000, DstPort: 443, Proto: 6}
		for stage := range testStages {
			evaluatorsAgree(t, rs, stage, pkt)
			evaluatorsAgree(t, rs, stage, Packet{})
			pre := m.Snapshot()
			v := rs.Evaluate(m, stage, &pkt)
			if v.Examined < 0 || v.Examined > len(rules) {
				t.Fatalf("stage %d examined %d of %d rules", stage, v.Examined, len(rules))
			}
			d := m.Snapshot().Sub(pre)
			if want := uint64(v.Examined) * core.CostRuleEval; d.Normal != want || d.SGXU != 0 {
				t.Fatalf("stage %d charged %+v, want Normal=%d", stage, d, want)
			}
			switch v.Action {
			case ActForward, ActMirror:
				if v.Target <= stage || v.Target >= len(testStages) {
					t.Fatalf("stage %d verdict targets %d — not strictly forward", stage, v.Target)
				}
			case ActDrop, ActTerminate:
			default:
				t.Fatalf("stage %d returned unknown action %d", stage, v.Action)
			}
		}
	})
}
