package nfchain

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
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

// BenchmarkCompileText compiles the MaxRules filler table against the
// depth-8 chain: the rule compilation of the nf-chain set-up.
func BenchmarkCompileText(b *testing.B) {
	text := fillerTable(MaxRules)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := CompileText(text, chainStages8); err != nil {
			b.Fatal(err)
		}
	}
}
