// Self-stabilizing state audit. The repair protocol of this package is
// correct under the classical assumption that processor state is only
// ever what the protocol wrote; this file drops that assumption. Every
// audited processor runs a standing background pass (msgAuditTick, one
// armed timer per processor, re-armed first thing by its own handler)
// that re-derives its records' invariants from O(1)-word neighbor
// exchanges and repairs in place whatever disagrees — the same
// invariants the central Verify checks, verified in-band instead:
//
//   - Down-probes: a helper asks each child it lists to report its
//     audited fields (kind, height, leaf count, representative) and the
//     parent it records. Matching replies let the helper recompute its
//     own aggregates exactly as checkRepresentatives (verify_delta.go)
//     does; a child that answers "gone" twice marks that side suspect.
//   - Up-claims: a record asks the parent it stores to confirm the
//     link. A parent that denies (or is missing) twice proves the
//     stored parent dangling; the record clears it, and the true
//     parent's next down-probe re-adopts the orphan.
//   - Stale-state fingerprint: transient repair scratch (reps, parts,
//     strip waiters, Breakflags) that survives several passes
//     bit-identically with zero protocol traffic in between belongs to
//     no live repair and is cleared wholesale.
//
// Every structural write is guarded by a confirm-twice rule: the same
// disagreement must be observed on two consecutive passes with the
// processor's non-audit message counter (aProtoSeen) unchanged in
// between. A live repair always moves messages, so anything it is
// about to fix invalidates the first observation; only genuinely
// corrupt — i.e. permanently silent — state survives to the second.
// This is what makes the layer safe to run mid-churn: it defers to the
// repair machinery (auditBusy, damaged records, busy replies) instead
// of racing it.
//
// The layer is silent in the Devismes sense: once the configuration is
// legal the audit keeps exchanging checksum probes but performs no
// writes — Stats.Probes grows, Stats.Repairs does not. All audit
// traffic is transport.ClassAudit and is paced through the ordinary
// outbox, so its clean-run overhead is measurable (AuditMessages) and
// CI-gated (BenchmarkAuditOverhead).
//
// Audit repairs deliberately do NOT go through logPhys: corruption is
// injected silently (a bit flip does not update the driver's
// incrementally maintained physical graph either), so a repair that
// restores the pre-corruption value restores agreement with the
// maintained graph as a side effect. Repairs do markTouched, so the
// incremental VerifyDelta revisits exactly the healed processors.
package dist

import (
	"fmt"
	"sort"

	"repro/internal/audit"
	"repro/internal/transport"
)

const (
	// auditStaleConfirm is how many consecutive passes a transient-state
	// fingerprint must survive unchanged — with no protocol traffic in
	// between — before it is declared stale and cleared.
	auditStaleConfirm = 3
	// auditSuspectConfirm is how many consecutive dangling verdicts a
	// probe target (or a claimed parent) must produce before the stored
	// pointer is treated as corrupt.
	auditSuspectConfirm = 2
)

// auditSideKey names one child side of one of this processor's helpers.
type auditSideKey struct {
	other NodeID
	side  int
}

// auditConfirm is one prior observation under a confirm-twice rule:
// what was observed, how many consecutive times, and the processor's
// non-audit message count at the last observation — the next
// observation only counts if that mark is unchanged.
type auditConfirm struct {
	what addr
	runs int
	mark int
}

// auditAgg stashes one helper's in-flight down-probe conversation: the
// per-side replies, folded into a recompute when both are in.
type auditAgg struct {
	have   [2]bool
	bad    bool
	height [2]int
	count  [2]int
	rep    [2]slot
}

// auditBusy reports whether this processor holds live repair state: the
// structural audit defers entirely while it does (probing records that
// a repair is about to rewrite would produce noise, not detection), and
// only the stale-state fingerprint machinery runs.
func (p *processor) auditBusy() bool {
	return len(p.reps) != 0 || len(p.parts) != 0 || len(p.stripWait) != 0
}

func (p *processor) anyDamaged() bool {
	for _, h := range p.helpers {
		if h.damaged {
			return true
		}
	}
	return false
}

// onAuditTick runs one audit pass. The re-arm comes first — a live
// audited processor always holds exactly one armed tick, the invariant
// the driver's netQuiet counts against — and is aligned to the period
// grid of the transport's pulse counter, so on simnet all processors
// audit in the same round and the rounds in between are genuinely
// quiet.
func (p *processor) onAuditTick(n transport.Endpoint) {
	if !p.auditOn {
		return
	}
	d := p.auditCfg.Period - n.Round()%p.auditCfg.Period
	if d <= 0 {
		d = p.auditCfg.Period
	}
	n.SendTimer(p.id, msgAuditTick{}, d)
	p.aStats.Passes++
	if p.auditBusy() || p.anyDamaged() {
		p.auditStalePass()
		return
	}
	p.aStaleRuns, p.aStaleFP = 0, 0
	p.auditExamine(n)
}

// auditStalePass watches held transient state for staleness. A live
// repair's scratch changes (or at least its owner receives messages)
// between passes; scratch that sits bit-identical through
// auditStaleConfirm passes with the non-audit message counter frozen
// belongs to no live repair — injected epochs, orphaned Breakflags —
// and is cleared wholesale.
func (p *processor) auditStalePass() {
	fp := p.transientFingerprint()
	if fp == p.aStaleFP && p.aProtoSeen == p.aStaleMark {
		p.aStaleRuns++
	} else {
		p.aStaleFP, p.aStaleMark, p.aStaleRuns = fp, p.aProtoSeen, 1
	}
	if p.aStaleRuns < auditStaleConfirm {
		return
	}
	p.aStaleRuns = 0
	cleared := 0
	for e := range p.reps {
		delete(p.reps, e)
		cleared++
	}
	for e := range p.parts {
		delete(p.parts, e)
		cleared++
	}
	for a := range p.stripWait {
		delete(p.stripWait, a)
		cleared++
	}
	for _, h := range p.helpers {
		if h.damaged {
			h.damaged, h.depoch = false, 0
			cleared++
		}
	}
	if cleared == 0 {
		return
	}
	p.aStats.Mismatches++
	p.aStats.Repairs += cleared
	p.markTouched()
}

// transientFingerprint folds every piece of transient repair state into
// one word (audit.Sum), canonically ordered so identical state always
// folds identically.
func (p *processor) transientFingerprint() uint64 {
	var w []int64
	addAddr := func(a addr) {
		w = append(w, int64(a.Owner), int64(a.Other), int64(a.Kind))
	}
	w = append(w, int64(len(p.reps)))
	for _, e := range sortedRecordKeys(p.reps) {
		rs := p.reps[e]
		w = append(w, int64(e), int64(rs.phase), int64(rs.outstanding),
			int64(rs.annRecvd), int64(rs.descRecvd))
	}
	w = append(w, int64(len(p.parts)))
	for _, e := range sortedRecordKeys(p.parts) {
		ps := p.parts[e]
		w = append(w, int64(e), int64(ps.walksOut), int64(ps.waitDone),
			int64(ps.waitChamps), int64(ps.annSent))
	}
	w = append(w, int64(len(p.stripWait)))
	for _, a := range sortedAddrKeys(p.stripWait) {
		addAddr(a)
		w = append(w, int64(p.stripWait[a].waiting))
	}
	for _, o := range sortedRecordKeys(p.helpers) {
		if h := p.helpers[o]; h.damaged {
			w = append(w, int64(o), int64(h.depoch))
		}
	}
	return audit.Sum(w...)
}

// sortedAddrKeys is sortedRecordKeys for addr-keyed maps.
func sortedAddrKeys[T any](m map[addr]T) []addr {
	keys := make([]addr, 0, len(m))
	for a := range m {
		keys = append(keys, a)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].less(keys[j]) })
	return keys
}

// auditExamine runs the structural pass: Batch records in canonical
// order (leaves then helpers, each ascending), resuming at the
// round-robin cursor, so every record is audited within
// ceil(records/Batch) passes.
func (p *processor) auditExamine(n transport.Endpoint) {
	leafKeys := sortedRecordKeys(p.leaves)
	helpKeys := sortedRecordKeys(p.helpers)
	total := len(leafKeys) + len(helpKeys)
	if total == 0 {
		return
	}
	steps := p.auditCfg.Batch
	if steps > total {
		steps = total
	}
	for i := 0; i < steps; i++ {
		idx := (p.aCursor + i) % total
		if idx < len(leafKeys) {
			p.auditLeafPass(n, leafKeys[idx])
		} else {
			p.auditHelperPass(n, helpKeys[idx-len(leafKeys)])
		}
	}
	p.aCursor = (p.aCursor + steps) % total
}

func (p *processor) auditClaimParent(n transport.Endpoint, child, parent addr) {
	p.aStats.Probes++
	p.sendPacedClass(n, parent.Owner,
		msgAuditClaim{Child: child, Target: parent}, wordsAuditClaim, transport.ClassAudit)
}

// auditLeafPass audits one leaf avatar: up-claim its recorded parent.
// A parentless leaf may be a legal sole root — only its true parent,
// whose down-probe proposes adoption, can tell otherwise.
func (p *processor) auditLeafPass(n transport.Endpoint, o NodeID) {
	if l := p.leaves[o]; l.parent.ok() {
		p.auditClaimParent(n, leafAddr(p.id, o), l.parent)
	}
}

// auditHelperPass audits one helper: up-claim its recorded parent and
// down-probe both children, stashing the conversation for the
// aggregate recompute when both replies are in.
func (p *processor) auditHelperPass(n transport.Endpoint, o NodeID) {
	h := p.helpers[o]
	if h.damaged {
		p.aStats.Deferred++
		return
	}
	self := helperAddr(p.id, o)
	if h.parent.ok() {
		p.auditClaimParent(n, self, h.parent)
	}
	if !h.left.ok() || !h.right.ok() {
		// A cleared child pointer on an undamaged helper: detectable,
		// but no in-band exchange can regrow it (no corruption mode
		// produces it either).
		p.aStats.Mismatches++
		return
	}
	if p.aWait == nil {
		p.aWait = make(map[addr]*auditAgg)
	}
	p.aWait[self] = &auditAgg{}
	for side, c := range [2]addr{h.left, h.right} {
		p.aStats.Probes++
		p.sendPacedClass(n, c.Owner,
			msgAuditProbe{Target: c, Parent: self, Side: side}, wordsAuditProbe, transport.ClassAudit)
	}
}

// onAuditProbe answers a down-probe about one of this processor's
// records, running the adopt-zero rule on a record whose parent is
// cleared.
func (p *processor) onAuditProbe(n transport.Endpoint, m msgAuditProbe) {
	r := msgAuditReply{Target: m.Target, Parent: m.Parent, Side: m.Side}
	switch {
	case p.auditBusy():
		r.Status = auditBusy
	case m.Target.Owner != p.id:
		r.Status = auditGone
	case m.Target.Kind == kindLeaf:
		l, ok := p.leaves[m.Target.Other]
		if !ok {
			r.Status = auditGone
			break
		}
		r.Kind, r.Height, r.Count, r.Rep = kindLeaf, 0, 1, m.Target.slot()
		r.Status = p.auditCheckParent(&l.parent, m.Target, m.Parent)
	default:
		h, ok := p.helpers[m.Target.Other]
		switch {
		case !ok:
			r.Status = auditGone
		case h.damaged:
			r.Status = auditBusy
		default:
			r.Kind, r.Height, r.Count, r.Rep = kindHelper, h.height, h.leafCount, h.rep
			r.Status = p.auditCheckParent(&h.parent, m.Target, m.Parent)
		}
	}
	p.sendPacedClass(n, m.Parent.Owner, r, wordsAuditReply, transport.ClassAudit)
}

// auditCheckParent compares a probed record's parent with the prober.
// A cleared parent adopts a prober that proposed itself on two
// consecutive passes with no protocol traffic in between: a repair that
// legitimately cleared the link would have moved messages here before
// the second proposal, and a prober that died after sending a stale
// probe never proposes twice. A set parent is never overridden — the
// up-claim path owns clearing bad ones.
func (p *processor) auditCheckParent(parent *addr, self, prober addr) auditStatus {
	switch {
	case *parent == prober:
		delete(p.aAdopt, self)
		return auditOK
	case parent.ok():
		return auditForeign
	}
	if e := p.aAdopt[self]; e != nil && e.what == prober && e.mark == p.aProtoSeen {
		*parent = prober
		delete(p.aAdopt, self)
		p.aStats.Mismatches++
		p.aStats.Repairs++
		p.markTouched()
		return auditOK
	}
	if p.aAdopt == nil {
		p.aAdopt = make(map[addr]*auditConfirm)
	}
	p.aAdopt[self] = &auditConfirm{what: prober, mark: p.aProtoSeen}
	return auditForeign
}

// onAuditReply folds one down-probe reply: suspect bookkeeping per
// child side, then the aggregate recompute once both sides answered.
func (p *processor) onAuditReply(n transport.Endpoint, m msgAuditReply) {
	key := auditSideKey{other: m.Parent.Other, side: m.Side}
	switch m.Status {
	case auditOK:
		delete(p.aSuspect, key)
	case auditGone, auditForeign:
		if e := p.aSuspect[key]; e != nil && e.what == m.Target && e.mark == p.aProtoSeen {
			e.runs++
		} else {
			if p.aSuspect == nil {
				p.aSuspect = make(map[auditSideKey]*auditConfirm)
			}
			p.aSuspect[key] = &auditConfirm{what: m.Target, runs: 1, mark: p.aProtoSeen}
		}
	case auditBusy:
		p.aStats.Deferred++
	}
	st := p.aWait[m.Parent]
	if st == nil || m.Side < 0 || m.Side > 1 || st.have[m.Side] {
		return
	}
	st.have[m.Side] = true
	if m.Status != auditOK {
		st.bad = true
	} else {
		st.height[m.Side], st.count[m.Side], st.rep[m.Side] = m.Height, m.Count, m.Rep
	}
	if !st.have[0] || !st.have[1] {
		return
	}
	delete(p.aWait, m.Parent)
	if !st.bad {
		p.auditRecompute(m.Parent, st)
	}
}

// auditRecompute re-derives a helper's stored aggregates from its
// children's replies, exactly as the central verifier would: height is
// max+1, leaf count the sum, and the representative is whichever child
// representative is not this helper's own slot (the free-leaf rule of
// verify.go — the consumed candidate is the leaf whose helper this is).
func (p *processor) auditRecompute(self addr, st *auditAgg) {
	h, ok := p.helpers[self.Other]
	if !ok || h.damaged || p.auditBusy() {
		return
	}
	wantH := st.height[0]
	if st.height[1] > wantH {
		wantH = st.height[1]
	}
	wantH++
	wantLC := st.count[0] + st.count[1]
	own := self.slot()
	wantRep, haveRep := h.rep, false
	switch {
	case st.rep[0] == own && st.rep[1] != own:
		wantRep, haveRep = st.rep[1], true
	case st.rep[1] == own && st.rep[0] != own:
		wantRep, haveRep = st.rep[0], true
	}
	if h.height == wantH && h.leafCount == wantLC && (!haveRep || h.rep == wantRep) {
		return
	}
	p.aStats.Mismatches++
	p.aStats.Repairs++
	h.height, h.leafCount = wantH, wantLC
	if haveRep {
		h.rep = wantRep
	}
	p.markTouched()
}

// onAuditClaim answers an up-claim about one of this processor's
// helpers, adopting the claimant into a confirmed-suspect child side.
func (p *processor) onAuditClaim(n transport.Endpoint, m msgAuditClaim) {
	v := msgAuditVerdict{Child: m.Child, Target: m.Target, Verdict: p.auditClaimVerdict(m)}
	p.sendPacedClass(n, m.Child.Owner, v, wordsAuditVerdict, transport.ClassAudit)
}

func (p *processor) auditClaimVerdict(m msgAuditClaim) auditVerdict {
	if p.auditBusy() {
		return auditVBusy
	}
	if m.Target.Owner != p.id || m.Target.Kind != kindHelper {
		return auditVMissing // parents are always helpers
	}
	h, ok := p.helpers[m.Target.Other]
	if !ok {
		return auditVMissing
	}
	if h.damaged {
		return auditVBusy
	}
	if h.left == m.Child || h.right == m.Child {
		return auditVMine
	}
	// The claimant is not listed. If one of this helper's child sides
	// has repeatedly probed as dangling, the stored pointer there is
	// corrupt and the claimant — which records this helper as its
	// parent — is its rightful occupant: adopt it.
	for side, c := range [2]addr{h.left, h.right} {
		key := auditSideKey{other: m.Target.Other, side: side}
		e := p.aSuspect[key]
		if e == nil || e.what != c {
			continue
		}
		if e.runs < auditSuspectConfirm || e.mark != p.aProtoSeen {
			// A suspicion is building on this side but is not confirmed
			// yet. Denying now could race the probe replies of the same
			// pass: two denials make the claimant — possibly this side's
			// rightful occupant — clear its correct parent pointer, and
			// the orphan would never be probed again. Defer instead; the
			// suspicion either confirms (the claimant is adopted) or the
			// stored child answers OK (the suspicion dissolves).
			return auditVBusy
		}
		if side == 0 {
			h.left = m.Child
		} else {
			h.right = m.Child
		}
		delete(p.aSuspect, key)
		p.aStats.Mismatches++
		p.aStats.Repairs++
		p.markTouched()
		return auditVMine
	}
	return auditVDeny
}

// onAuditVerdict folds a claim verdict: a parent that denied (or was
// missing) on two consecutive passes with no protocol traffic in
// between proves the stored parent pointer corrupt, and the record
// clears it — the true parent's down-probe then re-adopts the orphan.
func (p *processor) onAuditVerdict(n transport.Endpoint, m msgAuditVerdict) {
	switch m.Verdict {
	case auditVMine:
		delete(p.aClaimBad, m.Child)
		return
	case auditVBusy:
		p.aStats.Deferred++
		return
	}
	if p.auditBusy() || m.Child.Owner != p.id {
		return
	}
	var parent *addr
	switch m.Child.Kind {
	case kindLeaf:
		if l, ok := p.leaves[m.Child.Other]; ok {
			parent = &l.parent
		}
	default:
		if h, ok := p.helpers[m.Child.Other]; ok && !h.damaged {
			parent = &h.parent
		}
	}
	if parent == nil || *parent != m.Target {
		// The record moved since the claim went out; the verdict is
		// stale.
		delete(p.aClaimBad, m.Child)
		return
	}
	if e := p.aClaimBad[m.Child]; e != nil && e.what == m.Target && e.mark == p.aProtoSeen {
		*parent = addr{}
		delete(p.aClaimBad, m.Child)
		p.aStats.Mismatches++
		p.aStats.Repairs++
		p.markTouched()
		return
	}
	if p.aClaimBad == nil {
		p.aClaimBad = make(map[addr]*auditConfirm)
	}
	p.aClaimBad[m.Child] = &auditConfirm{what: m.Target, mark: p.aProtoSeen}
}

// ---- Driver side ----

// EnableAudit turns the self-stabilizing audit layer on for every
// current and future processor, at the given pacing (zero fields take
// the defaults). The layer is strictly additive: with it off — the
// default — no audit code path runs and no behavior changes.
func (s *Simulation) EnableAudit(cfg audit.Config) error {
	c, err := cfg.Normalize()
	if err != nil {
		return err
	}
	if s.auditOn {
		return fmt.Errorf("dist: audit already enabled")
	}
	s.auditOn, s.auditCfg = true, c
	s.boundDirty = true
	for _, v := range s.LiveNodes() {
		p := s.procs[v]
		p.auditOn, p.auditCfg = true, c
		s.armAuditTick(v)
	}
	return nil
}

// AuditEnabled reports whether the audit layer is on.
func (s *Simulation) AuditEnabled() bool { return s.auditOn }

// AuditStats aggregates the audit counters over all live processors
// plus the driver-side sweeps and the folded counters of processors
// churn has since deleted, so the totals are campaign-cumulative.
func (s *Simulation) AuditStats() audit.Stats {
	agg := s.audStats
	for _, p := range s.procs {
		agg.Add(p.aStats)
	}
	return agg
}

// AuditTraffic reports the transport-level cost of the audit layer
// since the last stats reset: delivered ClassAudit messages and the
// pulses that carried at least one of them.
func (s *Simulation) AuditTraffic() (messages, rounds int) {
	st := s.net.Stats()
	return st.AuditMessages, st.AuditRounds
}

// armAuditTick arms one processor's standing audit tick, aligned to the
// period grid of the transport's pulse counter so all simnet ticks fire
// in the same round (harmless on channet, whose clocks are per-node).
func (s *Simulation) armAuditTick(v NodeID) {
	d := s.auditCfg.Period - s.net.Round()%s.auditCfg.Period
	if d <= 0 {
		d = s.auditCfg.Period
	}
	s.net.SendTimer(v, msgAuditTick{}, d)
}

// netQuiet is the audited network's notion of quiescence. With the
// audit on every live processor holds exactly one armed tick (handlers
// re-arm before doing anything else), so "pending <= live processors"
// means only the standing ticks remain. With the audit off it is
// exactly Pending() == 0.
func (s *Simulation) netQuiet() bool {
	if !s.auditOn {
		return s.net.Pending() == 0
	}
	return s.net.Pending() <= len(s.alive)
}

// auditEngineSweep is the driver-side analogue of the processors'
// stale-state detector, run once per engine tick: an in-flight repair
// footprint whose epoch no processor holds scratch for (no reps, no
// parts) — with the network quiet, so nothing carrying that epoch is
// even in transit — can never complete in-band. After two full audit
// periods of that, the footprint is declared phantom and swept.
func (s *Simulation) auditEngineSweep() {
	if !s.auditOn || len(s.inflight) == 0 {
		s.auditStall = 0
		return
	}
	// The stall counts every tick some repair stays in flight — including
	// the audit layer's own periodic probe bursts, which would otherwise
	// reset it forever. Quiescence is required only at the moment of
	// sweeping: quiet means just the standing ticks are pending, and no
	// audit message ever creates repair scratch, so an epoch with no
	// scratch anywhere then is provably phantom.
	s.auditStall++
	if s.auditStall <= 2*s.auditCfg.Period+8 || !s.netQuiet() {
		return
	}
	s.auditStall = 0
	for _, e := range s.phantomEpochs() {
		s.dropFlight(e)
		s.audStats.Mismatches++
		s.audStats.Repairs++
	}
}

func (s *Simulation) phantomEpochs() []NodeID {
	var out []NodeID
	for e := range s.inflight {
		seen := false
		for _, p := range s.procs {
			if _, ok := p.reps[e]; ok {
				seen = true
				break
			}
			if _, ok := p.parts[e]; ok {
				seen = true
				break
			}
		}
		if !seen {
			out = append(out, e)
		}
	}
	if len(out) > 1 {
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	}
	return out
}
