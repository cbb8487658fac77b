package nfchain

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"

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

// lineFields is the number of fields in a rule line.
const lineFields = 6

// asciiSpace marks the bytes strings.Fields splits an ASCII string on.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// splitLine splits line around runs of white space exactly as
// strings.Fields does, writes at most len(out) fields and returns how
// many it wrote. out holds one field more than a rule line has, so an
// overlong line still fails the field-count check. An ASCII line is
// split in place, in one pass and without allocating; a line with any
// other byte goes through strings.Fields itself, which also splits on
// Unicode white space.
func splitLine(line string, out *[lineFields + 1]string) int {
	n, bits := 0, byte(0)
	for i := 0; i < len(line); {
		for i < len(line) && asciiSpace[line[i]] {
			i++
		}
		start := i
		for i < len(line) && !asciiSpace[line[i]] {
			bits |= line[i]
			i++
		}
		if start < i {
			if n < len(out) {
				out[n] = line[start:i]
			}
			n++
		}
	}
	if bits >= utf8.RuneSelf {
		return copy(out[:], strings.Fields(line))
	}
	return min(n, len(out))
}

// interner gives each distinct stage or target name of one Parse one
// copy and a dense index. The copies keep a rule list from pinning the
// whole source text through substrings; the index stands in for the
// stage name in duplicate keys.
type interner struct {
	index map[string]int
	names []string
}

func (in *interner) intern(s string) (string, int) {
	i, ok := in.index[s]
	if !ok {
		i = len(in.names)
		s = strings.Clone(s)
		in.index[s] = i
		in.names = append(in.names, s)
	}
	return in.names[i], i
}

// dupKey is a rule's duplicate-detection key: its stage's interned index
// and its Match, packed into two words. Packing is exact, so two rules
// have equal keys iff they share a stage and have equal Matches.
type dupKey struct{ lo, hi uint64 }

func bit(b bool, i uint) uint64 {
	if b {
		return 1 << i
	}
	return 0
}

func packKey(scope int, m Match) dupKey {
	flags := bit(m.Wild, 0) | bit(m.HasFlow, 1) | bit(m.HasSrc, 2) | bit(m.HasDst, 3) | bit(m.HasProto, 4) | bit(m.HasTag, 5)
	return dupKey{
		lo: uint64(m.Flow)<<32 | uint64(m.Src)<<16 | uint64(m.Dst),
		hi: uint64(scope)<<24 | uint64(m.Proto)<<16 | uint64(m.Tag)<<8 | flags,
	}
}

// Parse parses rule text into an ordered rule list. It enforces the
// table bound, the line grammar, and rejects duplicate (scope,
// predicate) pairs — everything that can be checked without knowing the
// chain's stage list (Compile checks the rest).
//
// Two rules are duplicates when their stage and Match are equal: parsing
// leaves absent fields zero, so Match equality ignores key order. Parse
// makes one pass and allocates nothing per rule: lines are split in
// place, each distinct name is copied once, and the duplicate key is
// fixed-size.
func Parse(text string) ([]Rule, error) {
	n := min(strings.Count(text, "\n")+1, MaxRules)
	rules := make([]Rule, 0, n)
	seen := make(map[dupKey]struct{}, n)
	names := interner{index: make(map[string]int)}
	var fields [lineFields + 1]string
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
		if splitLine(line, &fields) != lineFields || fields[0] != "at" || fields[2] != "match" || fields[4] != "->" {
			return nil, fmt.Errorf("line %d: want `at <stage> match <spec> -> <action>`, got %q", lineNo, line)
		}
		m, err := parseMatch(fields[3])
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		stage, scope := names.intern(fields[1])
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
		if r.Target != "" {
			r.Target, _ = names.intern(r.Target)
		}
		// One map operation per rule: a duplicate leaves the size
		// unchanged, and the rare error finds its earlier line by a scan.
		size := len(seen)
		if seen[packKey(scope, m)] = struct{}{}; len(seen) == size {
			return nil, fmt.Errorf("line %d: duplicate of rule on line %d (same stage and predicate)", lineNo, firstLine(rules, r))
		}
		rules = append(rules, r)
	}
	return rules, nil
}

// firstLine returns the line of the first rule in rules with r's stage
// and Match.
func firstLine(rules []Rule, r Rule) int {
	for _, q := range rules {
		if q.At == r.At && q.Match == r.Match {
			return q.Line
		}
	}
	return 0
}

// maxStages bounds a chain's length: a verdict names a stage in one
// byte, and 0xFF means none (encodeVerdict).
const maxStages = 255

// RuleSet is a rule list compiled against a concrete chain layout:
// stage names resolved to indices and the routing graph proven acyclic.
type RuleSet struct {
	rules  []Rule
	target []int // per rule: resolved target stage index, -1 if none
	// byStage lists, stage after stage and in table order within each,
	// the indices of the rules scoped to that stage; stage s owns
	// byStage[first[s]:first[s+1]].
	byStage []int32
	first   []int32
	stages  []string
}

// Compile resolves a parsed rule list against the chain's ordered stage
// names and rejects anything that could loop or dangle: unknown scope or
// target stages, any explicit edge that does not go strictly forward,
// and chains longer than a verdict can address (255 stages).
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
	if len(stages) > maxStages {
		return nil, fmt.Errorf("nfchain: chain has %d stages, more than the %d a verdict can name", len(stages), maxStages)
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
		rules:   rules,
		target:  make([]int, len(rules)),
		byStage: make([]int32, len(rules)),
		first:   make([]int32, len(stages)+1),
		stages:  stages,
	}
	at := make([]int32, len(rules))
	for i, r := range rules {
		a, ok := idx[r.At]
		if !ok {
			return nil, fmt.Errorf("line %d: unknown stage %q", r.Line, r.At)
		}
		at[i] = int32(a)
		rs.first[a+1]++
		rs.target[i] = -1
		if r.Target != "" {
			t, ok := idx[r.Target]
			if !ok {
				return nil, fmt.Errorf("line %d: unknown target stage %q", r.Line, r.Target)
			}
			if t <= a {
				return nil, fmt.Errorf("line %d: %s %q -> %q creates a routing cycle (targets must be later in the chain)",
					r.Line, r.Action, r.At, r.Target)
			}
			rs.target[i] = t
		}
	}
	// A counting sort, stable so each stage keeps table order.
	for s := range stages {
		rs.first[s+1] += rs.first[s]
	}
	next := append([]int32(nil), rs.first[:len(stages)]...)
	for i, a := range at {
		rs.byStage[next[a]] = int32(i)
		next[a]++
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
	// Examined counts the rules the modelled engine walks, and charges
	// for: the matched rule's table index + 1, or the table's length on
	// fallthrough.
	Examined int
	// Rule is the index of the matched rule, -1 on fallthrough.
	Rule int
}

// Evaluate runs the rule engine for one packet at one stage. The
// modelled engine is a single linear table walked at every hop: each
// examined rule — including rules scoped to other stages — charges
// CostRuleEval, and the first rule whose scope and predicate both match
// wins. No match falls through: forward to the next stage, or terminate
// at the last. This is the cost model the chain sweep stresses: table
// size R costs up to R×CostRuleEval per packet per hop.
//
// The host walks only the stage's own rules, since no other rule can
// match, and charges the count the whole-table walk would have reached.
// A stage outside the layout owns no rules and falls through.
func (rs *RuleSet) Evaluate(m *core.Meter, stage int, p *Packet) Verdict {
	v := Verdict{Target: -1, Cont: -1, Examined: len(rs.rules), Rule: -1}
	var own []int32
	if stage >= 0 && stage < len(rs.stages) {
		own = rs.byStage[rs.first[stage]:rs.first[stage+1]]
	}
	for _, i := range own {
		r := &rs.rules[i]
		if !r.Match.matches(p) {
			continue
		}
		v.Examined = int(i) + 1
		m.ChargeNormal(uint64(v.Examined) * core.CostRuleEval)
		v.Rule = int(i)
		v.Action = r.Action
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
