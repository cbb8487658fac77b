package nfchain

import (
	"fmt"
	"strconv"
	"strings"

	"sgxnet/internal/core"
)

// The routing rule grammar. One rule per line:
//
//	at <stage> match <k=v{,k=v} | *> -> <action>
//
// Match keys: flow=<u32> src=<u16> dst=<u16> proto=<u8> tag=<name>.
// Actions: drop | terminate | forward:<stage> | mirror:<stage>.
// '#' starts a comment; blank lines are ignored.
//
// The grammar is deliberately strict — this text crosses into the
// enclave as operator-supplied configuration, so the parser is a trust
// boundary and a fuzz target (FuzzChainRules): unknown keys, unknown
// actions, duplicate keys, duplicate rules, out-of-range integers, and
// oversized tables are all hard errors, never silent no-ops.

// Action is what a matched rule does with the packet.
type Action uint8

const (
	// ActForward hands the packet to the named stage (skipping any in
	// between, as long as the target is strictly later in the chain).
	ActForward Action = iota
	// ActMirror copies the packet to the named stage while the original
	// continues to the next stage in order.
	ActMirror
	// ActDrop discards the packet.
	ActDrop
	// ActTerminate ends processing and emits the packet on the chain's
	// egress path.
	ActTerminate
)

func (a Action) String() string {
	switch a {
	case ActForward:
		return "forward"
	case ActMirror:
		return "mirror"
	case ActDrop:
		return "drop"
	case ActTerminate:
		return "terminate"
	}
	return fmt.Sprintf("action(%d)", uint8(a))
}

// MaxRules bounds the table size; Parse rejects larger inputs before
// building anything (a fuzzer favorite: a million-line table must not
// allocate a million rules).
const MaxRules = 4096

// Match is one rule's predicate over the packet header. Absent fields
// are wildcards; Wild marks the explicit `*` form that matches anything.
type Match struct {
	Wild     bool
	HasFlow  bool
	Flow     uint32
	HasSrc   bool
	Src      uint16
	HasDst   bool
	Dst      uint16
	HasProto bool
	Proto    uint8
	HasTag   bool
	Tag      Tag
}

// matches reports whether the packet satisfies every present field.
func (m Match) matches(p *Packet) bool {
	if m.Wild {
		return true
	}
	if m.HasFlow && m.Flow != p.Flow {
		return false
	}
	if m.HasSrc && m.Src != p.SrcPort {
		return false
	}
	if m.HasDst && m.Dst != p.DstPort {
		return false
	}
	if m.HasProto && m.Proto != p.Proto {
		return false
	}
	if m.HasTag && m.Tag != p.Tag {
		return false
	}
	return true
}

// Rule is one parsed grammar line.
type Rule struct {
	At     string // stage scope: the rule fires only at this stage
	Match  Match
	Action Action
	Target string // forward/mirror destination stage ("" otherwise)
	Line   int    // 1-based source line, for error messages
}

// parseUint is the grammar's strict integer parser: decimal only, no
// sign, no whitespace, and overflow is an error (a flow=4294967296 rule
// must be rejected, not wrapped to flow=0).
func parseUint(s string, bits int) (uint64, error) {
	if s == "" {
		return 0, fmt.Errorf("empty number")
	}
	if s[0] == '+' || s[0] == '-' {
		return 0, fmt.Errorf("sign not allowed in %q", s)
	}
	v, err := strconv.ParseUint(s, 10, bits)
	if err != nil {
		return 0, fmt.Errorf("bad %d-bit number %q", bits, s)
	}
	return v, nil
}

// parseMatch parses the predicate part of a rule line.
func parseMatch(spec string) (Match, error) {
	var m Match
	if spec == "*" {
		m.Wild = true
		return m, nil
	}
	for rest, more := spec, true; more; {
		var kv string
		kv, rest, more = strings.Cut(rest, ",")
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

// Parse parses rule text into an ordered rule list. It enforces the
// table bound, the line grammar, and rejects duplicate (scope,
// predicate) pairs — everything that can be checked without knowing the
// chain's stage list (Compile checks the rest).
//
// Two rules are duplicates when their stage and Match are equal: parsing
// leaves absent fields zero, so Match equality ignores key order.
func Parse(text string) ([]Rule, error) {
	type scoped struct {
		at string
		m  Match
	}
	n := min(strings.Count(text, "\n")+1, MaxRules)
	rules := make([]Rule, 0, n)
	seen := make(map[scoped]int, n) // (at, match) → line
	for lineNo, more := 0, true; more; {
		var line string
		line, text, more = strings.Cut(text, "\n")
		lineNo++
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
		m, err := parseMatch(fields[3])
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
		key := scoped{r.At, m}
		if prev, dup := seen[key]; dup {
			return nil, fmt.Errorf("line %d: duplicate of rule on line %d (same stage and predicate)", lineNo, prev)
		}
		seen[key] = lineNo
		rules = append(rules, r)
	}
	return rules, nil
}

// RuleSet is a rule list compiled against a concrete chain layout:
// stage names resolved to indices and the routing graph proven acyclic.
type RuleSet struct {
	rules  []Rule
	atIdx  []int // per rule: index of its scope stage
	target []int // per rule: resolved target stage index, -1 if none
	stages []string
}

// Compile resolves a parsed rule list against the chain's ordered stage
// names and rejects anything that could loop or dangle: unknown scope or
// target stages, and any explicit edge that does not go strictly forward.
//
// Acyclicity: the routing graph is the explicit forward/mirror edges
// plus the implicit fallthrough edge i→i+1 at every non-final stage. With
// every fallthrough present, the graph is acyclic iff every explicit
// edge goes strictly forward — an edge back to stage t ≤ a closes the
// cycle t → t+1 → … → a → t through fallthroughs. So the forward-only
// check below is a complete cycle test, not a heuristic.
func Compile(rules []Rule, stages []string) (*RuleSet, error) {
	if len(stages) == 0 {
		return nil, fmt.Errorf("nfchain: chain needs at least one stage")
	}
	idx := make(map[string]int, len(stages))
	for i, s := range stages {
		if s == "" {
			return nil, fmt.Errorf("nfchain: stage %d has an empty name", i)
		}
		if _, dup := idx[s]; dup {
			return nil, fmt.Errorf("nfchain: duplicate stage name %q", s)
		}
		idx[s] = i
	}
	rs := &RuleSet{
		rules:  rules,
		atIdx:  make([]int, len(rules)),
		target: make([]int, len(rules)),
		stages: stages,
	}
	for i, r := range rules {
		at, ok := idx[r.At]
		if !ok {
			return nil, fmt.Errorf("line %d: unknown stage %q", r.Line, r.At)
		}
		rs.atIdx[i] = at
		rs.target[i] = -1
		if r.Target != "" {
			t, ok := idx[r.Target]
			if !ok {
				return nil, fmt.Errorf("line %d: unknown target stage %q", r.Line, r.Target)
			}
			if t <= at {
				return nil, fmt.Errorf("line %d: %s %q -> %q creates a routing cycle (targets must be later in the chain)",
					r.Line, r.Action, r.At, r.Target)
			}
			rs.target[i] = t
		}
	}
	return rs, nil
}

// CompileText is Parse + Compile in one step.
func CompileText(text string, stages []string) (*RuleSet, error) {
	rules, err := Parse(text)
	if err != nil {
		return nil, err
	}
	return Compile(rules, stages)
}

// Len returns the number of rules in the table.
func (rs *RuleSet) Len() int { return len(rs.rules) }

// Stages returns the chain layout the set was compiled against.
func (rs *RuleSet) Stages() []string { return rs.stages }

// Verdict is the rule engine's decision for one packet at one stage.
type Verdict struct {
	Action Action
	// Target is the next stage index: forward destination, or the
	// mirror copy's destination. -1 when the action has none.
	Target int
	// Cont is the stage the original packet continues to after a
	// mirror (the fallthrough successor). -1 when it terminates.
	Cont int
	// Examined counts rules the engine walked (and charged for).
	Examined int
	// Rule is the index of the matched rule, -1 on fallthrough.
	Rule int
}

// Evaluate runs the rule engine for one packet at one stage. The engine
// is a single linear table walked at every hop: each examined rule —
// including rules scoped to other stages — charges CostRuleEval, and the
// first rule whose scope and predicate both match wins. No match falls
// through: forward to the next stage, or terminate at the last. This is
// the cost model the chain sweep stresses: table size R costs up to
// R×CostRuleEval per packet per hop.
func (rs *RuleSet) Evaluate(m *core.Meter, stage int, p *Packet) Verdict {
	v := Verdict{Target: -1, Cont: -1, Rule: -1}
	for i := range rs.rules {
		v.Examined++
		if rs.atIdx[i] != stage || !rs.rules[i].Match.matches(p) {
			continue
		}
		m.ChargeNormal(uint64(v.Examined) * core.CostRuleEval)
		v.Rule = i
		v.Action = rs.rules[i].Action
		switch v.Action {
		case ActForward:
			v.Target = rs.target[i]
		case ActMirror:
			v.Target = rs.target[i]
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
