package main

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/gateway"
	"repro/internal/query"
)

// wrongAnswer marks an answer that differs from the expected one; any such
// answer fails the whole run. Other errors are counted as failed ops.
type wrongAnswer struct{ msg string }

func (w *wrongAnswer) Error() string { return "wrong answer: " + w.msg }

func wrongf(format string, args ...any) error {
	return &wrongAnswer{msg: fmt.Sprintf(format, args...)}
}

// row is one merged answer row: the source member and its value.
type row struct {
	src string
	val int64
}

func sortRows(rs []row) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].src != rs[j].src {
			return rs[i].src < rs[j].src
		}
		return rs[i].val < rs[j].val
	})
}

func resultRows(res *gateway.Result) ([]row, error) {
	if res == nil {
		return nil, wrongf("no result table")
	}
	out := make([]row, len(res.Rows))
	for i, r := range res.Rows {
		if len(r) != 2 {
			return nil, wrongf("row %d has %d columns, want 2", i, len(r))
		}
		out[i] = row{src: r[0].Str, val: r[1].Int}
	}
	return out, nil
}

// scanMembers returns the data coalition's member indexes.
func (d *dataset) scanMembers() []int { return d.coalition(scanCoalition).Members }

// expectRange is every member's rows with ids in [a, a+w), projected on val
// (or on code for semi-join outer sides).
func (d *dataset) expectRange(a, w int, code bool, keep func(int32) bool) []row {
	var out []row
	for _, m := range d.scanMembers() {
		t := d.Nodes[m].Obs
		for id := a; id < a+w; id++ {
			v := t.val[id]
			if code {
				v = t.code[id]
			}
			if keep == nil || keep(v) {
				out = append(out, row{d.Nodes[m].Name, int64(v)})
			}
		}
	}
	return out
}

func (d *dataset) buildKeys(b, bw int) map[int32]bool {
	keys := map[int32]bool{}
	for _, m := range d.coalition(sideCoalition).Members {
		for id := b; id < b+bw; id++ {
			keys[d.Nodes[m].Ref.code[id]] = true
		}
	}
	return keys
}

// check verifies one op's outcome against the dataset. A nil error means
// the answer is exactly what the generator's own data predicts.
func (d *dataset) check(op *Op, resp *query.Response, sess *query.Session, res *gateway.Result) error {
	switch op.Kind {
	case opSel, opWide:
		return sameRows(resp, d.expectRange(op.A, op.W, false, nil))
	case opSemi:
		keys := d.buildKeys(op.B, op.BW)
		return sameRows(resp, d.expectRange(op.A, op.W, true, func(v int32) bool { return keys[v] }))
	case opTopK:
		return d.checkTopK(op, resp)
	case opUpdate:
		if res == nil || res.RowsAffected != 1 {
			return wrongf("%s: want 1 row affected, got %v", op.Text, res)
		}
		return nil
	case opJoin, opLeave:
		if resp == nil || !strings.Contains(resp.Text, scanCoalition) {
			return wrongf("%s: unexpected reply %v", op.Text, resp)
		}
		return nil
	case opFind:
		return d.checkFind(op, resp)
	case opInstances:
		want := []string{}
		for _, m := range d.coalition(op.Name).Members {
			want = append(want, d.Nodes[m].Name)
		}
		got := append([]string{}, resp.Names...)
		sort.Strings(want)
		sort.Strings(got)
		if strings.Join(got, ",") != strings.Join(want, ",") {
			return wrongf("%s: instances %v, want %v", op.Text, got, want)
		}
		return nil
	case opAccess:
		var want *nodeSpec
		for i := range d.Nodes {
			if d.Nodes[i].Name == op.Name {
				want = &d.Nodes[i]
			}
		}
		got := resp.Descriptor
		if got == nil || got.Name != want.Name || got.Engine != want.Engine ||
			got.ORB != string(want.Product) || got.InformationType != want.InfoType {
			return wrongf("%s: descriptor %+v, want %s/%s/%s", op.Text, got, want.Name, want.Engine, want.Product)
		}
		return nil
	case opConnect:
		if sess.Coalition != op.Name {
			return wrongf("%s: session connected to %q", op.Text, sess.Coalition)
		}
		return nil
	}
	return fmt.Errorf("unchecked op kind %v", op.Kind)
}

func sameRows(resp *query.Response, want []row) error {
	got, err := resultRows(resp.Result)
	if err != nil {
		return err
	}
	if len(got) != len(want) {
		return wrongf("%s: %d rows, want %d", resp.Stmt, len(got), len(want))
	}
	sortRows(got)
	sortRows(want)
	for i := range got {
		if got[i] != want[i] {
			return wrongf("%s: row %v, want %v", resp.Stmt, got[i], want[i])
		}
	}
	return nil
}

// checkTopK accepts any min(K, matching) rows that the members really hold
// for the group: which matching rows a member returns first is the engine's
// scan order, not part of the statement's meaning.
func (d *dataset) checkTopK(op *Op, resp *query.Response) error {
	got, err := resultRows(resp.Result)
	if err != nil {
		return err
	}
	avail := map[row]int{}
	total := 0
	for _, m := range d.scanMembers() {
		t := d.Nodes[m].Obs
		for _, id := range t.byGrp[int32(op.G)] {
			avail[row{d.Nodes[m].Name, int64(t.val[id])}]++
			total++
		}
	}
	want := min(op.K, total)
	if len(got) != want {
		return wrongf("%s: %d rows, want %d", op.Text, len(got), want)
	}
	for _, r := range got {
		if avail[r] == 0 {
			return wrongf("%s: row %v is not in group %d", op.Text, r, op.G)
		}
		avail[r]--
	}
	return nil
}

// lead is one expected discovery lead: coalition and score.
type lead struct {
	name  string
	score float64
}

// tokens mirrors WebTassili topic tokenisation: lower-cased alphanumeric
// words without the connectives and/or/the/of/in.
func tokens(s string) []string {
	var out []string
	for _, f := range strings.FieldsFunc(strings.ToLower(s), func(r rune) bool {
		return !('a' <= r && r <= 'z' || '0' <= r && r <= '9')
	}) {
		switch f {
		case "and", "or", "the", "of", "in":
		default:
			out = append(out, f)
		}
	}
	return out
}

func score(topic []string, vocab map[string]bool) float64 {
	hit := 0
	for _, t := range topic {
		if vocab[t] {
			hit++
		}
	}
	return float64(hit) / float64(len(topic))
}

func vocabOf(parts ...string) map[string]bool {
	v := map[string]bool{}
	for _, p := range parts {
		for _, t := range tokens(p) {
			v[t] = true
		}
	}
	return v
}

func (d *dataset) coalitionVocab(c *coalitionSpec) map[string]bool {
	parts := []string{c.Name, c.Desc}
	for _, m := range c.Members {
		parts = append(parts, d.Nodes[m].InfoType)
	}
	return vocabOf(parts...)
}

func (d *dataset) scoreCoalitions(node int, topic []string) []lead {
	var out []lead
	for _, c := range d.memberOf(node) {
		if s := score(topic, d.coalitionVocab(c)); s > 0 {
			out = append(out, lead{c.Name, s})
		}
	}
	return out
}

func (d *dataset) scoreLinks(node int, topic []string) []lead {
	var out []lead
	for _, l := range d.linksHeldBy(node) {
		if s := score(topic, vocabOf(l.To+" "+l.InfoType+" "+l.Desc)); s > 0 {
			out = append(out, lead{l.To, s})
		}
	}
	return out
}

func full(ls []lead) bool {
	for _, l := range ls {
		if l.score >= 1 {
			return true
		}
	}
	return false
}

// expectFind is the paper's three-stage resolution computed over the
// dataset: the home's coalitions, then its links, then every coalition peer's
// coalitions and links, stopping at the first stage with a full match.
// Peer leads are deduplicated by name the way the resolution merges them.
func (d *dataset) expectFind(home int, topic string) []lead {
	toks := tokens(topic)
	if len(toks) == 0 {
		return nil
	}
	leads := d.scoreCoalitions(home, toks)
	if full(leads) {
		return leads
	}
	leads = append(leads, d.scoreLinks(home, toks)...)
	if full(leads) {
		return leads
	}
	seen := map[string]bool{}
	for _, l := range leads {
		seen["c:"+strings.ToLower(l.name)] = true
	}
	peers := map[int]bool{}
	for _, c := range d.memberOf(home) {
		for _, m := range c.Members {
			if m != home {
				peers[m] = true
			}
		}
	}
	for p := range peers {
		for _, l := range d.scoreCoalitions(p, toks) {
			if k := "c:" + strings.ToLower(l.name); !seen[k] {
				seen[k] = true
				leads = append(leads, l)
			}
		}
		for _, l := range d.scoreLinks(p, toks) {
			if k := "l:" + strings.ToLower(l.name); !seen[k] {
				seen[k] = true
				leads = append(leads, l)
			}
		}
	}
	return leads
}

func sortLeads(ls []lead) {
	sort.Slice(ls, func(i, j int) bool {
		if ls[i].score != ls[j].score {
			return ls[i].score > ls[j].score
		}
		return ls[i].name < ls[j].name
	})
}

func (d *dataset) checkFind(op *Op, resp *query.Response) error {
	want := d.expectFind(op.Node, op.Name)
	got := make([]lead, len(resp.Leads))
	for i, l := range resp.Leads {
		got[i] = lead{l.Coalition, l.Score}
	}
	sortLeads(want)
	sortLeads(got)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		return wrongf("%s from %s: leads %v, want %v", op.Text, d.Nodes[op.Node].Name, got, want)
	}
	return nil
}
