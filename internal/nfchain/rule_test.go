package nfchain

import (
	"fmt"
	"strings"
	"testing"

	"sgxnet/internal/core"
)

var testStages = []string{"classify", "filter", "dpi", "reencrypt"}

const grammarText = `
# deny-list
at classify match dst=23 -> drop
at classify match proto=17,flow=7 -> forward:dpi   # skip the filter
at classify match tag=dns -> mirror:dpi
at filter match tag=blocked -> drop
at dpi match * -> terminate
`

func TestParseGrammar(t *testing.T) {
	rules, err := Parse(grammarText)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(rules) != 5 {
		t.Fatalf("got %d rules, want 5", len(rules))
	}
	if rules[0].Action != ActDrop || !rules[0].Match.HasDst || rules[0].Match.Dst != 23 {
		t.Fatalf("rule 0 parsed wrong: %+v", rules[0])
	}
	if rules[1].Action != ActForward || rules[1].Target != "dpi" || !rules[1].Match.HasProto || !rules[1].Match.HasFlow {
		t.Fatalf("rule 1 parsed wrong: %+v", rules[1])
	}
	if rules[2].Action != ActMirror || rules[2].Target != "dpi" || rules[2].Match.Tag != TagDNS {
		t.Fatalf("rule 2 parsed wrong: %+v", rules[2])
	}
	if !rules[4].Match.Wild || rules[4].Action != ActTerminate {
		t.Fatalf("rule 4 parsed wrong: %+v", rules[4])
	}
}

var rejectCases = []struct {
	name string
	text string
}{
	{"unknown-action", "at classify match * -> reject"},
	{"unknown-key", "at classify match port=80 -> drop"},
	{"unknown-tag", "at classify match tag=voip -> drop"},
	{"duplicate-key", "at classify match dst=80,dst=443 -> drop"},
	{"overflow-flow", "at classify match flow=4294967296 -> drop"},
	{"overflow-port", "at classify match dst=65536 -> drop"},
	{"signed-number", "at classify match dst=-1 -> drop"},
	{"hex-number", "at classify match dst=0x50 -> drop"},
	{"missing-target", "at classify match * -> forward:"},
	{"malformed-line", "classify match * -> drop"},
	{"bare-term", "at classify match dst -> drop"},
	{"duplicate-rule", "at classify match dst=80,proto=6 -> drop\nat classify match proto=6,dst=80 -> terminate"},
}

func TestParseRejects(t *testing.T) {
	for _, tc := range rejectCases {
		if _, err := Parse(tc.text); err == nil {
			t.Errorf("%s: Parse accepted %q", tc.name, tc.text)
		}
	}
}

func TestParseTableBound(t *testing.T) {
	var sb strings.Builder
	for i := 0; i <= MaxRules; i++ {
		fmt.Fprintf(&sb, "at classify match flow=%d -> drop\n", i)
	}
	if _, err := Parse(sb.String()); err == nil {
		t.Fatalf("Parse accepted %d rules (max %d)", MaxRules+1, MaxRules)
	}
	// Exactly MaxRules is fine.
	lines := strings.SplitAfter(sb.String(), "\n")
	if _, err := Parse(strings.Join(lines[:MaxRules], "")); err != nil {
		t.Fatalf("Parse rejected exactly %d rules: %v", MaxRules, err)
	}
}

var compileRejectCases = []struct {
	name string
	text string
}{
	{"unknown-stage", "at nat match * -> drop"},
	{"unknown-target", "at classify match * -> forward:nat"},
	{"self-cycle", "at dpi match * -> forward:dpi"},
	{"backward-cycle", "at dpi match tag=tls -> mirror:classify"},
}

func TestCompileRejects(t *testing.T) {
	for _, tc := range compileRejectCases {
		rules, err := Parse(tc.text)
		if err != nil {
			t.Fatalf("%s: Parse failed: %v", tc.name, err)
		}
		if _, err := Compile(rules, testStages); err == nil {
			t.Errorf("%s: Compile accepted %q", tc.name, tc.text)
		}
	}
	if _, err := Compile(nil, []string{"a", "a"}); err == nil {
		t.Error("Compile accepted duplicate stage names")
	}
	if _, err := Compile(nil, nil); err == nil {
		t.Error("Compile accepted an empty chain")
	}
}

func TestEvaluateFirstMatchAndCharging(t *testing.T) {
	rs, err := CompileText(`
at classify match flow=1 -> drop
at classify match flow=2 -> forward:dpi
at dpi match tag=malware -> drop
at classify match * -> terminate
`, testStages)
	if err != nil {
		t.Fatalf("CompileText: %v", err)
	}
	m := core.NewMeter()

	// flow=1 matches rule 0: one rule examined, one CostRuleEval.
	v := rs.Evaluate(m, 0, &Packet{Flow: 1})
	if v.Action != ActDrop || v.Examined != 1 {
		t.Fatalf("flow=1: got %v examined=%d", v.Action, v.Examined)
	}
	if got := m.SnapshotAndReset(); got.Normal != core.CostRuleEval || got.SGXU != 0 {
		t.Fatalf("flow=1 charge = %+v, want Normal=%d", got, core.CostRuleEval)
	}

	// flow=2 skips rule 0, matches rule 1 (explicit forward skips filter).
	v = rs.Evaluate(m, 0, &Packet{Flow: 2})
	if v.Action != ActForward || v.Target != 2 || v.Examined != 2 {
		t.Fatalf("flow=2: %+v", v)
	}
	if got := m.SnapshotAndReset(); got.Normal != 2*core.CostRuleEval {
		t.Fatalf("flow=2 charge = %+v", got)
	}

	// flow=3 falls to the wildcard terminate (examines rules 0,1,2,3 —
	// the dpi-scoped rule still costs an examination at classify).
	v = rs.Evaluate(m, 0, &Packet{Flow: 3})
	if v.Action != ActTerminate || v.Examined != 4 {
		t.Fatalf("flow=3: %+v", v)
	}
	if got := m.SnapshotAndReset(); got.Normal != 4*core.CostRuleEval {
		t.Fatalf("flow=3 charge = %+v", got)
	}

	// At the filter stage nothing is scoped: full walk, implicit
	// fallthrough to the next stage.
	v = rs.Evaluate(m, 1, &Packet{Flow: 3})
	if v.Action != ActForward || v.Target != 2 || v.Examined != 4 {
		t.Fatalf("filter fallthrough: %+v", v)
	}

	// At the last stage the fallthrough terminates.
	v = rs.Evaluate(m, 3, &Packet{Flow: 3})
	if v.Action != ActTerminate {
		t.Fatalf("last-stage fallthrough: %+v", v)
	}
}

func TestEvaluateMirrorContinuation(t *testing.T) {
	rs, err := CompileText("at classify match tag=dns -> mirror:dpi", testStages)
	if err != nil {
		t.Fatalf("CompileText: %v", err)
	}
	v := rs.Evaluate(core.NewMeter(), 0, &Packet{Tag: TagDNS})
	if v.Action != ActMirror || v.Target != 2 || v.Cont != 1 {
		t.Fatalf("mirror verdict: %+v", v)
	}
}

func TestPacketCodecStrict(t *testing.T) {
	p := Packet{Flow: 7, SrcPort: 40000, DstPort: 443, Proto: 6, Tag: TagTLS, Payload: []byte("hello")}
	got, err := UnmarshalPacket(p.Marshal())
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if got.Flow != 7 || got.DstPort != 443 || string(got.Payload) != "hello" {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	wire := p.Marshal()
	if _, err := UnmarshalPacket(wire[:len(wire)-1]); err == nil {
		t.Error("truncated packet accepted")
	}
	if _, err := UnmarshalPacket(append(wire, 0)); err == nil {
		t.Error("oversized packet accepted")
	}
	bad := p
	bad.Tag = Tag(200)
	if _, err := UnmarshalPacket(bad.Marshal()); err == nil {
		t.Error("unknown tag accepted")
	}
}
