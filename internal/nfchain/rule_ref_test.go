package nfchain

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"sgxnet/internal/core"
)

// referenceCanonical returns a normalized string form used for
// duplicate detection: two rules with the same scope and the same
// predicate are a configuration error regardless of key order in the
// source text.
func referenceCanonical(m Match) string {
	if m.Wild {
		return "*"
	}
	parts := make([]string, 0, 5)
	if m.HasFlow {
		parts = append(parts, fmt.Sprintf("flow=%d", m.Flow))
	}
	if m.HasSrc {
		parts = append(parts, fmt.Sprintf("src=%d", m.Src))
	}
	if m.HasDst {
		parts = append(parts, fmt.Sprintf("dst=%d", m.Dst))
	}
	if m.HasProto {
		parts = append(parts, fmt.Sprintf("proto=%d", m.Proto))
	}
	if m.HasTag {
		parts = append(parts, fmt.Sprintf("tag=%s", m.Tag))
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// referenceParseMatch parses the predicate part of a rule line.
func referenceParseMatch(spec string) (Match, error) {
	var m Match
	if spec == "*" {
		m.Wild = true
		return m, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return Match{}, fmt.Errorf("match term %q is not key=value", kv)
		}
		switch k {
		case "flow":
			if m.HasFlow {
				return Match{}, fmt.Errorf("duplicate key flow")
			}
			n, err := parseUint(v, 32)
			if err != nil {
				return Match{}, err
			}
			m.HasFlow, m.Flow = true, uint32(n)
		case "src":
			if m.HasSrc {
				return Match{}, fmt.Errorf("duplicate key src")
			}
			n, err := parseUint(v, 16)
			if err != nil {
				return Match{}, err
			}
			m.HasSrc, m.Src = true, uint16(n)
		case "dst":
			if m.HasDst {
				return Match{}, fmt.Errorf("duplicate key dst")
			}
			n, err := parseUint(v, 16)
			if err != nil {
				return Match{}, err
			}
			m.HasDst, m.Dst = true, uint16(n)
		case "proto":
			if m.HasProto {
				return Match{}, fmt.Errorf("duplicate key proto")
			}
			n, err := parseUint(v, 8)
			if err != nil {
				return Match{}, err
			}
			m.HasProto, m.Proto = true, uint8(n)
		case "tag":
			if m.HasTag {
				return Match{}, fmt.Errorf("duplicate key tag")
			}
			t, ok := ParseTag(v)
			if !ok {
				return Match{}, fmt.Errorf("unknown tag %q", v)
			}
			m.HasTag, m.Tag = true, t
		default:
			return Match{}, fmt.Errorf("unknown match key %q", k)
		}
	}
	return m, nil
}

// referenceParse is a second implementation of Parse: it splits the
// text and each predicate with strings.Split and keys duplicates by a
// canonical string built per rule. Parse must agree with it rule for
// rule, and error text for error text (TestParseMatchesReference,
// FuzzChainRules).
func referenceParse(text string) ([]Rule, error) {
	var rules []Rule
	seen := make(map[string]int) // canonical (at, match) → line
	for i, line := range strings.Split(text, "\n") {
		lineNo := i + 1
		if idx := strings.IndexByte(line, '#'); idx >= 0 {
			line = line[:idx]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if len(rules) >= MaxRules {
			return nil, fmt.Errorf("line %d: rule table exceeds %d rules", lineNo, MaxRules)
		}
		fields := strings.Fields(line)
		if len(fields) != 6 || fields[0] != "at" || fields[2] != "match" || fields[4] != "->" {
			return nil, fmt.Errorf("line %d: want `at <stage> match <spec> -> <action>`, got %q", lineNo, line)
		}
		stage := fields[1]
		if stage == "" {
			return nil, fmt.Errorf("line %d: empty stage name", lineNo)
		}
		m, err := referenceParseMatch(fields[3])
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		r := Rule{At: stage, Match: m, Line: lineNo}
		act := fields[5]
		switch {
		case act == "drop":
			r.Action = ActDrop
		case act == "terminate":
			r.Action = ActTerminate
		case strings.HasPrefix(act, "forward:"):
			r.Action, r.Target = ActForward, act[len("forward:"):]
		case strings.HasPrefix(act, "mirror:"):
			r.Action, r.Target = ActMirror, act[len("mirror:"):]
		default:
			return nil, fmt.Errorf("line %d: unknown action %q", lineNo, act)
		}
		if (r.Action == ActForward || r.Action == ActMirror) && r.Target == "" {
			return nil, fmt.Errorf("line %d: %s needs a target stage", lineNo, r.Action)
		}
		key := r.At + " " + referenceCanonical(m)
		if prev, dup := seen[key]; dup {
			return nil, fmt.Errorf("line %d: duplicate of rule on line %d (same stage and predicate)", lineNo, prev)
		}
		seen[key] = lineNo
		rules = append(rules, r)
	}
	return rules, nil
}

// referenceEvaluate is the rule engine as a single linear walk of the
// whole table at every stage, each rule it passes counted, and names
// resolved by search. Evaluate walks only the stage's own rules; it
// must return the same verdict and make the same charge
// (evaluatorsAgree).
func referenceEvaluate(rs *RuleSet, m *core.Meter, stage int, p *Packet) Verdict {
	v := Verdict{Target: -1, Cont: -1, Rule: -1}
	for i, r := range rs.rules {
		v.Examined++
		if stage < 0 || stage >= len(rs.stages) || r.At != rs.stages[stage] || !r.Match.matches(p) {
			continue
		}
		m.ChargeNormal(uint64(v.Examined) * core.CostRuleEval)
		v.Rule = i
		v.Action = r.Action
		switch v.Action {
		case ActForward:
			v.Target = slices.Index(rs.stages, r.Target)
		case ActMirror:
			v.Target = slices.Index(rs.stages, r.Target)
			if stage+1 < len(rs.stages) {
				v.Cont = stage + 1
			}
		}
		return v
	}
	m.ChargeNormal(uint64(v.Examined) * core.CostRuleEval)
	if stage+1 < len(rs.stages) {
		v.Action, v.Target = ActForward, stage+1
	} else {
		v.Action = ActTerminate
	}
	return v
}

// evaluatorsAgree fails unless Evaluate and referenceEvaluate return
// equal verdicts for p at stage and charge fresh meters equally.
func evaluatorsAgree(t testing.TB, rs *RuleSet, stage int, p Packet) {
	t.Helper()
	m, ref := core.NewMeter(), core.NewMeter()
	got, want := rs.Evaluate(m, stage, &p), referenceEvaluate(rs, ref, stage, &p)
	if got != want {
		t.Fatalf("stage %d, packet %+v: Evaluate = %+v, reference %+v", stage, p, got, want)
	}
	if g, w := m.Snapshot(), ref.Snapshot(); g != w {
		t.Fatalf("stage %d, packet %+v: Evaluate charged %+v, reference %+v", stage, p, g, w)
	}
}

// chainStages8 is the depth-8 chain layout of the chain sweep and the
// nf-chain benchmark workload.
var chainStages8 = []string{"classify", "filter", "dpi", "nat", "reencrypt", "dpi2", "nat2", "reencrypt2"}

// fillerTable is the chain sweep's depth-8 rule table: filler rules
// that never match ahead of the five that route traffic.
func fillerTable(rules int) string {
	base := []string{
		"at classify match proto=17 -> forward:dpi",
		"at classify match tag=dns -> mirror:dpi",
		"at filter match tag=blocked -> drop",
		"at dpi match tag=malware -> drop",
		"at dpi2 match tag=malware -> drop",
	}
	lines := make([]string, 0, rules)
	for i := 0; i < rules-len(base); i++ {
		lines = append(lines, fmt.Sprintf("at classify match flow=%d -> drop", 10_000_000+i))
	}
	return strings.Join(append(lines, base...), "\n")
}

// parsersAgree fails unless Parse and referenceParse return equal rule
// lists, or errors with equal text.
func parsersAgree(t testing.TB, text string) {
	t.Helper()
	got, err := Parse(text)
	want, werr := referenceParse(text)
	if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
		t.Fatalf("Parse(%.80q) error = %v, reference error = %v", text, err, werr)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("Parse(%.80q) = %d rules, reference %d; they differ", text, len(got), len(want))
	}
}

// TestParseMatchesReference runs both parsers over the grammar, reject
// and compile-reject cases, the MaxRules filler table and shapes at the
// edges of line and term splitting and of duplicate detection.
func TestParseMatchesReference(t *testing.T) {
	texts := []string{
		grammarText,
		fillerTable(MaxRules),
		fillerTable(MaxRules + 1),
		fillerTable(MaxRules-1) + "\nat classify match flow=10000000 -> terminate",
		"",
		"\n",
		"# only a comment",
		"at classify match * -> drop\n",
		"at classify match * -> drop\r\nat filter match * -> drop\r\n",
		"at classify match * -> drop\nat filter match * -> drop",
		"at classify match * -> drop\nat classify match * -> terminate",
		"at dpi match * -> drop\nat dpi match flow=0 -> drop",
		"at dpi match tag=other -> drop\nat dpi match flow=0 -> drop",
		"at dpi match src=1,dst=2,proto=3,flow=4,tag=tls -> drop\nat dpi match tag=tls,flow=4,proto=3,dst=2,src=1 -> drop",
		"at dpi match src=1,dst=2 -> drop\nat dpi match src=2,dst=1 -> drop",
		"at classify match dst=1, -> drop",
		"at classify match ,dst=1 -> drop",
		"at classify match dst=1,,proto=6 -> drop",
		// Every ASCII separator strings.Fields knows, alone and in runs.
		"at\tclassify\vmatch\f*\r->\tdrop",
		"at \t\v\f\r classify\t\tmatch\v\v* \f\f->\r\rdrop\n\tat filter match * -> drop \r\n",
		// Unicode white space splits fields too; only a line with a
		// non-ASCII byte can hold it.
		"at\u0085classify match * -> drop",
		"at classify\u00a0match * -> drop",
		"at classify match\u2028* -> drop",
		"at classify match *\u3000->\u00a0drop",
		"\u3000at classify match * -> drop\u0085",
		"at classify match * -> \u00a0 drop",
		"at classify match tag=tls,\u00a0dst=1 -> drop",
		"at classify match * -> drop\xff",
		// A non-ASCII stage name.
		"at cl\u00e4ssify match * -> drop\nat classify match * -> forward:dp\u00ef",
		// Five, seven and eight fields.
		"at classify match * ->",
		"at classify match * -> drop drop",
		"at classify match * -> drop and more",
		// A zero value is not an absent field, and * is not one term.
		"at dpi match flow=0,dst=1 -> drop\nat dpi match dst=1 -> drop",
		"at dpi match proto=0,tag=tls -> drop\nat dpi match tag=tls -> drop",
		"at dpi match proto=0 -> drop\nat dpi match tag=other -> drop\nat dpi match src=0 -> drop",
		"at dpi match * -> drop\nat dpi match tag=other -> drop",
		// One Match at two stages is no duplicate; the third line is
		// one, of the first.
		"at classify match dst=80 -> drop\nat filter match dst=80 -> drop",
		"at classify match dst=80 -> drop\nat filter match dst=80 -> drop\nat classify match dst=80 -> terminate",
		"at classify match * -> drop",
	}
	for _, tc := range rejectCases {
		texts = append(texts, tc.text)
	}
	for _, tc := range compileRejectCases {
		texts = append(texts, tc.text)
	}
	for _, text := range texts {
		parsersAgree(t, text)
	}
}

// testPackets covers the value domains of randomTable's rules, every
// tag, and two flows of the filler table.
func testPackets() []Packet {
	ps := []Packet{{Flow: 10_000_000}, {Flow: 10_000_000 + MaxRules - 6, Proto: 17}}
	for flow := uint32(0); flow < 3; flow++ {
		for _, dst := range []uint16{23, 80, 443} {
			for _, proto := range []uint8{6, 17} {
				for tag := TagOther; tag < tagCount; tag++ {
					ps = append(ps, Packet{Flow: flow, SrcPort: 40000, DstPort: dst, Proto: proto, Tag: tag})
				}
			}
		}
	}
	return ps
}

// randomTable returns n distinct seeded rules over testStages, drawn
// from small value domains so that rules overlap each other and match
// testPackets.
func randomTable(seed int64, n int) string {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool)
	var lines []string
	for len(lines) < n {
		at := rng.Intn(len(testStages))
		var terms []string
		if rng.Intn(2) == 0 {
			terms = append(terms, fmt.Sprintf("flow=%d", rng.Intn(3)))
		}
		if rng.Intn(3) == 0 {
			terms = append(terms, fmt.Sprintf("dst=%d", []int{23, 80, 443}[rng.Intn(3)]))
		}
		if rng.Intn(3) == 0 {
			terms = append(terms, fmt.Sprintf("proto=%d", []int{0, 6, 17}[rng.Intn(3)]))
		}
		if rng.Intn(3) == 0 {
			terms = append(terms, "tag="+Tag(rng.Intn(int(tagCount))).String())
		}
		spec := "*"
		if len(terms) > 0 {
			spec = strings.Join(terms, ",")
		}
		act := []string{"drop", "terminate"}[rng.Intn(2)]
		if later := len(testStages) - at - 1; later > 0 && rng.Intn(2) == 0 {
			act = []string{"forward:", "mirror:"}[rng.Intn(2)] + testStages[at+1+rng.Intn(later)]
		}
		if key := testStages[at] + " " + spec; !seen[key] {
			seen[key] = true
			lines = append(lines, fmt.Sprintf("at %s match %s -> %s", testStages[at], spec, act))
		}
	}
	return strings.Join(lines, "\n")
}

// TestEvaluateMatchesReference holds Evaluate's per-stage walk to the
// whole-table reference walk, verdict for verdict and charge for charge,
// at every stage and at one stage either side of the layout: on the
// grammar text, the MaxRules filler table and seeded random tables.
func TestEvaluateMatchesReference(t *testing.T) {
	type table struct {
		text   string
		stages []string
	}
	tables := []table{{grammarText, testStages}, {fillerTable(MaxRules), chainStages8}}
	for seed := int64(1); seed <= 20; seed++ {
		tables = append(tables, table{randomTable(seed, int(seed*3)), testStages})
	}
	pkts := testPackets()
	for _, tb := range tables {
		rs, err := CompileText(tb.text, tb.stages)
		if err != nil {
			t.Fatalf("CompileText(%.80q): %v", tb.text, err)
		}
		for stage := -1; stage <= len(tb.stages); stage++ {
			for _, p := range pkts {
				evaluatorsAgree(t, rs, stage, p)
			}
		}
	}
}

// TestCompileTextAllocs bounds the allocations of compiling the MaxRules
// filler table: a fixed number, not one or more per rule.
func TestCompileTextAllocs(t *testing.T) {
	text := fillerTable(MaxRules)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := CompileText(text, chainStages8); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 64 {
		t.Fatalf("CompileText of %d rules made %.0f allocations, want < 64", MaxRules, allocs)
	}
}

// BenchmarkCompileText compiles the MaxRules filler table against the
// depth-8 chain: the rule compilation of the nf-chain set-up.
func BenchmarkCompileText(b *testing.B) {
	text := fillerTable(MaxRules)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CompileText(text, chainStages8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluate evaluates a packet no rule matches at a late stage of
// the MaxRules filler table (dpi2, which owns one rule): the host walk
// of a hop whose modelled walk is the whole table.
func BenchmarkEvaluate(b *testing.B) {
	rs, err := CompileText(fillerTable(MaxRules), chainStages8)
	if err != nil {
		b.Fatal(err)
	}
	stage := slices.Index(chainStages8, "dpi2")
	m := core.NewMeter()
	p := Packet{Flow: 1, SrcPort: 40000, DstPort: 443, Proto: 6, Tag: TagTLS}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := rs.Evaluate(m, stage, &p); v.Examined != MaxRules {
			b.Fatalf("examined %d of %d rules", v.Examined, MaxRules)
		}
	}
}
