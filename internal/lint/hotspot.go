package lint

import (
	"fmt"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

func init() { Register(hotspotVar{}) }

// DefaultHotspotWriters is gstm010's threshold: storage written by at
// least this many distinct transaction sites is reported.
const DefaultHotspotWriters = 3

// hotspotVar is gstm010: transactional storage written by many
// distinct transaction sites.
//
// The guide can reorder and hold transactions, but it cannot remove a
// data dependence: a Var (or container, or field) sitting in the
// may-write set of many Atomic sites serializes all of them — every
// pair of those sites is an abort edge in the static conflict graph,
// and at runtime the word becomes the workload's commit bottleneck
// regardless of how admissions are scheduled. That is a design smell
// best seen before any profile exists, so the check runs on the same
// module-wide footprint index as the -footprint report and reports
// at the storage *declaration* (one finding per hotspot, not one per
// writer). Deliberate hot counters are suppressed at the declaration
// with `//gstm:ignore gstm010 -- why`.
type hotspotVar struct{}

func (hotspotVar) ID() string   { return "gstm010" }
func (hotspotVar) Name() string { return "conflict-hotspot" }
func (hotspotVar) Doc() string {
	return fmt.Sprintf("flags transactional storage written by >= %d distinct Atomic sites "+
		"(per the static conflict footprints): such a word serializes every writer and "+
		"becomes the commit bottleneck no admission schedule can fix; shard the storage "+
		"or document the intent with //gstm:ignore gstm010", DefaultHotspotWriters)
}

// hotspotInfo aggregates the distinct writer sites of one concrete
// storage root across the whole Run.
type hotspotInfo struct {
	label string
	decl  token.Position
	// writers are distinct site positions, rendered "path:line".
	writers map[string]bool
}

// hotspots builds (and memoizes) the module-wide writer index over
// every non-test Atomic site of the Run.
func (pr *program) hotspots() map[string]*hotspotInfo {
	if pr.hot != nil {
		return pr.hot
	}
	pr.hot = map[string]*hotspotInfo{}
	for _, pkg := range pr.pkgs {
		for _, site := range atomicSitesIn(pkg) {
			pos := pkg.Fset.Position(site.call.Pos())
			if strings.HasSuffix(pos.Filename, "_test.go") {
				continue
			}
			fp := pr.siteFootprint(pkg, site)
			siteKey := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
			for _, a := range fp.accs {
				if !a.write || a.root.kind != fpConcrete || a.root.decl.Filename == "" {
					continue
				}
				h := pr.hot[a.root.label]
				if h == nil {
					h = &hotspotInfo{label: a.root.label, decl: a.root.decl, writers: map[string]bool{}}
					pr.hot[a.root.label] = h
				}
				h.writers[siteKey] = true
			}
		}
	}
	return pr.hot
}

func (c hotspotVar) Check(p *Pass) {
	if p.prog == nil || isSTMImplPackage(p.Pkg.Path) {
		return
	}
	// Report each hotspot once, at its declaration, from the package
	// pass that owns the declaring file.
	owned := map[string]bool{}
	for _, f := range p.Pkg.Files {
		if tf := p.Fset.File(f.Pos()); tf != nil {
			owned[tf.Name()] = true
		}
	}
	var hots []*hotspotInfo
	for _, h := range p.prog.hotspots() {
		if len(h.writers) >= DefaultHotspotWriters && owned[h.decl.Filename] {
			hots = append(hots, h)
		}
	}
	sort.Slice(hots, func(i, j int) bool { return hots[i].label < hots[j].label })
	for _, h := range hots {
		sites := make([]string, 0, len(h.writers))
		for s := range h.writers {
			sites = append(sites, s)
		}
		sort.Strings(sites)
		shown := make([]string, 0, 3)
		for _, s := range sites {
			if len(shown) == 3 {
				break
			}
			if i := strings.LastIndex(s, string(filepath.Separator)); i >= 0 {
				s = s[i+1:]
			}
			shown = append(shown, s)
		}
		more := ""
		if len(sites) > len(shown) {
			more = ", ..."
		}
		p.ReportAtf(h.decl, "transactional storage %s is written by %d distinct transaction sites (%s%s): every pair is a static abort edge, so this word serializes the workload's commits; shard it or document the bottleneck with //gstm:ignore gstm010", h.label, len(sites), strings.Join(shown, ", "), more)
	}
}
