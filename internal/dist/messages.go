package dist

import (
	"fmt"

	"repro/internal/graph"
)

// NodeID identifies a processor, shared with package graph.
type NodeID = graph.NodeID

// slot identifies a per-edge avatar exactly as in internal/core: the
// G′-edge (Owner, Other) seen from Owner's side. Leaf avatar L(v,x) and
// helper H(v,x) both live in slot {v, x}.
type slot struct {
	Owner, Other NodeID
}

func (s slot) String() string { return fmt.Sprintf("(%d,%d)", s.Owner, s.Other) }

// less orders slots lexicographically, matching core's tie-breaking.
func (s slot) less(t slot) bool {
	if s.Owner != t.Owner {
		return s.Owner < t.Owner
	}
	return s.Other < t.Other
}

// kind distinguishes the two virtual-node flavors sharing a slot.
type kind uint8

const (
	kindLeaf kind = iota + 1
	kindHelper
)

// addr names a virtual tree node globally: a slot plus the node kind.
// It is the distributed replacement for core's *haft.Node pointers —
// two node IDs and a tag, i.e. O(1) words of O(log n) bits. The zero
// addr means "no such node" (a cleared pointer).
type addr struct {
	Owner, Other NodeID
	Kind         kind
}

func (a addr) ok() bool   { return a.Kind != 0 }
func (a addr) slot() slot { return slot{Owner: a.Owner, Other: a.Other} }
func (a addr) String() string {
	if !a.ok() {
		return "-"
	}
	k := "L"
	if a.Kind == kindHelper {
		k = "H"
	}
	return fmt.Sprintf("%s(%d,%d)", k, a.Owner, a.Other)
}

// less orders addrs lexicographically for deterministic iteration.
func (a addr) less(b addr) bool {
	if a.Owner != b.Owner {
		return a.Owner < b.Owner
	}
	if a.Other != b.Other {
		return a.Other < b.Other
	}
	return a.Kind < b.Kind
}

func leafAddr(owner, other NodeID) addr   { return addr{Owner: owner, Other: other, Kind: kindLeaf} }
func helperAddr(owner, other NodeID) addr { return addr{Owner: owner, Other: other, Kind: kindHelper} }

// Message vocabulary. Every message is a constant number of O(log n)-bit
// words (IDs, counts, and one path word whose bit-length is the tree
// height <= ceil(log2 n)); the words constants below count the scalar
// fields Lemma 4 would charge for.

// Repair messages carry an Epoch: the identity of the deletion whose
// repair they belong to (the deleted processor's ID, unique forever
// since IDs are never reused). Repairs of independent damaged regions
// run concurrently, and the epoch is how a processor — which may be
// notified by several repairs at once — files each message under the
// right leader scratch.

// noNode is the "no such processor" sentinel for the BT_v tree links
// carried by msgDeath (processor IDs are never negative).
const noNode NodeID = -1

// msgDeath is the deletion notification: the model's "neighbors of the
// deleted node are informed". It is addressed to every physical
// neighbor of the deleted processor (G′ neighbors plus tree neighbors
// of its avatars) and carries the receiver's position in BT_v, the
// coordination tree over the notified set (the deleted node's will
// assigns each neighbor its slot; O(1) words). The repair leader is NOT
// announced — the participants elect it themselves by a pairwise
// knockout tournament up BT_v (msgChampion / msgLeader).
type msgDeath struct {
	V NodeID // the deleted processor (also the repair's epoch)
	// BTParent, BTLeft, BTRight are the receiver's neighbors in BT_v
	// (noNode where absent; the root has no parent).
	BTParent, BTLeft, BTRight NodeID
	// Leader pre-appoints the repair leader (noNode normally). Set only
	// on a coalesced merge launch: the knockout tournament's winner is
	// always the smallest notified ID, which the driver knows, so the
	// participants skip the election entirely. BT_v is still carried —
	// the termination-detection convergecasts run over it.
	Leader NodeID
}

// Leader election. The notified processors run an O(log d)-round
// pairwise knockout over BT_v: every participant reports its champion
// (the smallest ID seen in its subtree) to its BT_v parent once both
// children have reported; the root's final champion is the leader,
// announced back down the tree. Each msgLeader carries a Wait count —
// the announced subtree height below the receiver — so every
// participant begins its repair work in the same round (root waits
// longest, leaves not at all), exactly the synchrony the protocol's
// damage walks assume. These are ClassElection traffic.

// msgChampion moves one subtree's champion up BT_v. Height is the
// reporting subtree's height, from which the root learns the tree
// depth it must announce downward.
type msgChampion struct {
	Epoch  NodeID
	ID     NodeID // smallest participant ID in the sender's subtree
	Height int
}

// msgLeader announces the tournament winner down BT_v. Wait is the
// number of rounds the receiver must hold its repair work so that all
// participants begin together (its subtree height).
type msgLeader struct {
	Epoch  NodeID
	Leader NodeID
	Wait   int
}

// msgBeginRepair is the local timer a participant schedules to hold
// its death-processing for msgLeader.Wait rounds (zero words, not
// network traffic). A Wait of zero processes inline instead.
type msgBeginRepair struct {
	Epoch  NodeID
	Leader NodeID
}

// msgMarkDamaged walks one hop up a parent pointer, marking the target
// helper damaged (the paper's Breakflag propagation, Algorithm A.5):
// a node that lost a child no longer heads an intact subtree, and
// neither does any of its ancestors. Origin names the participant that
// seeded the walk; whoever terminates it (announcing a root or hitting
// an already-marked node) acks the origin so it can prove its local
// phase complete.
type msgMarkDamaged struct {
	Target addr
	Epoch  NodeID
	Leader NodeID
	Origin NodeID
}

// msgWalkAck tells a damage walk's origin that the walk terminated
// (ClassSync): one ack per seeded walk, so the origin counts its
// outstanding walks to zero. Announced is 1 when the termination
// produced a root announcement to the leader, 0 when the walk stopped
// at an already-marked node — the origin folds it into its subtree's
// announcement count (see msgSubtreeDone).
type msgWalkAck struct {
	Epoch     NodeID
	Announced int
}

// msgSubtreeDone is the termination-detection convergecast up BT_v
// (ClassSync): the sender's whole BT_v subtree has finished its
// notification-phase work — death records processed, all seeded damage
// walks acked. Announced totals the leader-bound announcements (root
// announces and fresh leaves) the subtree produced, its own and its
// walks': phase completion is proven by MESSAGE COUNTING, because
// under a congested network "everyone finished sending" does not imply
// "everything arrived".
type msgSubtreeDone struct {
	Epoch     NodeID
	Announced int
}

// msgPhaseDone is the BT_v root reporting global notification-phase
// completion to the elected leader (ClassSync), carrying the total
// announcement count. The leader starts the key phase only once it
// holds this report AND has received exactly that many announcements —
// the last condition is what makes the detection sound under arbitrary
// bandwidth-induced delays.
type msgPhaseDone struct {
	Epoch     NodeID
	Announced int
}

// msgRootAnnounce tells the leader about a fragment root: either a
// survivor cut loose from its parent, or the top of a damage walk.
// Height is the announcing record's stored height — an upper bound on
// the fragment's remaining depth, from which the leader sizes its
// phase watchdog timers.
type msgRootAnnounce struct {
	Root   addr
	Epoch  NodeID
	Height int
}

// msgFreshLeaf tells the leader a surviving G′-neighbor created its new
// leaf avatar L(x,v) for the half-dead edge (x,v).
type msgFreshLeaf struct {
	Leaf  addr
	Epoch NodeID
}

// msgPhaseWatch is the leader's per-phase watchdog timer: armed when a
// phase launches, with a delay bounded by the strip height (the
// deepest fragment's stored height bounds both the probe descent and
// the strip cascade plus its ack convergecast). An honest phase always
// completes by the bound under unlimited bandwidth; under a finite cap
// traffic may lag, so a firing watchdog that finds its phase still
// open re-arms rather than declaring failure (the simulation's global
// round bound remains the hard failsafe). A firing that finds the
// phase already advanced is stale and ignored. Phase is the phase
// counter value being watched, so exactly-at-the-bound completions
// never double-advance.
type msgPhaseWatch struct {
	Epoch NodeID
	Phase int
	Delay int // the height-bounded delay, reused on re-arm
}

// msgFlushOutbox is the local timer a pacing processor schedules to
// continue draining its outbox on the next round (see sendPaced).
// Like the phase triggers it is a zero-word wake-up, not network
// traffic; the queued messages themselves are charged normally when
// they are actually sent.
type msgFlushOutbox struct{}

// msgKeyProbe descends the prefer-left path from a fragment root to
// find the component's ordering key (core's leftmostLeafSlot walk).
type msgKeyProbe struct {
	Comp   addr // fragment root = component identity
	Target addr
	Epoch  NodeID
	Leader NodeID
}

// msgKeyFound / msgKeyNone report the probe's outcome to the leader.
type msgKeyFound struct {
	Comp  addr
	Key   slot
	Epoch NodeID
}

type msgKeyNone struct {
	Comp  addr
	Epoch NodeID
}

// msgStripVisit performs one step of the distributed strip: the target
// either declares itself a maximal intact complete subtree (a primary
// root) or discards itself and forwards the visit to its children.
// Depth/Path encode the position under the fragment root so the leader
// can restore left-to-right order from out-of-order arrivals. AckTo is
// the visiting parent node, the destination of the resolution ack that
// convergecasts strip completion back up (zero addr at a fragment
// root, whose completion goes to the leader as msgStripDone).
type msgStripVisit struct {
	Comp   addr
	Target addr
	Depth  int
	Path   uint64 // bit per step from the root, 0=left 1=right, MSB first
	Epoch  NodeID
	Leader NodeID
	AckTo  addr
}

// msgStripAck tells a retired helper's owner that one child subtree of
// the strip cascade has fully resolved (ClassSync). Target names the
// retired node the ack is for; when its last child resolves, the
// resolution propagates up — a convergecast whose depth is bounded by
// the strip height. Descs counts the descriptors the resolved subtree
// reported to the leader, summed on the way up (message counting, as
// in the notification phase: descriptors and acks travel different
// edges, so completion must prove arrival, not just emission).
type msgStripAck struct {
	Epoch  NodeID
	Target addr
	Descs  int
}

// msgStripDone tells the leader one whole fragment finished stripping
// (ClassSync) and how many descriptors it produced; the strip phase is
// proven complete when every launched fragment reported done AND
// exactly the announced number of descriptors arrived.
type msgStripDone struct {
	Epoch NodeID
	Descs int
}

// msgMergeAck confirms one merge-plan instruction applied (ClassSync).
// The leader counts one ack per emitted instruction; the last one
// proves the repair complete IN-BAND — the signal the open-loop engine
// uses to hand a serialized region off to its next repair
// (leader-to-leader, no driver barrier) and to emit the RepairDone
// event. Before the async engine, "repair finished" was only knowable
// by running the network to quiescence driver-side.
type msgMergeAck struct {
	Epoch NodeID
}

// msgDescriptor reports one primary root to the leader: everything the
// merge needs — identity, size, stored height, and the representative
// leaf (the free leaf charged when this tree is joined as the bigger
// side, Algorithm A.9).
type msgDescriptor struct {
	Comp      addr
	Depth     int
	Path      uint64
	Node      addr
	LeafCount int
	Height    int
	Epoch     NodeID
	Rep       slot
}

// msgCreateHelper instructs a processor to start simulating a fresh
// helper on the given slot, with fully specified tree links (the
// leader's merge plan names every neighbor). The epoch tag routes the
// completion ack: every instruction is confirmed back to its sender —
// instructions always come from the repair leader itself, so the ack
// destination is the message's sender field, costing no extra word —
// and the leader's count of outstanding acks is the in-band proof the
// repair has finished.
type msgCreateHelper struct {
	Slot        slot
	Parent      addr // zero addr for the new RT root
	Left, Right addr
	Rep         slot
	Height      int
	LeafCount   int
	Epoch       NodeID
}

// msgSetParent re-parents an existing node (a primary root adopted by a
// new helper), acked to its sender — the leader — like msgCreateHelper.
type msgSetParent struct {
	Target addr
	Parent addr
	Epoch  NodeID
}

// Self-stabilizing audit layer (see audit.go). All audit traffic is
// ClassAudit: O(1)-word background probes that detect and repair
// corrupted records without driver intervention. The exchange is two
// request/response pairs — a parent probing the children it lists
// (down) and a child asking the parent it records to confirm the link
// (up) — plus the standing zero-word tick that paces each processor's
// passes.

// msgAuditTick is the standing local timer driving one processor's
// audit passes (zero words, not network traffic). The handler re-arms
// it first thing, so a live audited processor always holds exactly one
// armed tick — the invariant the driver's netQuiet counts against.
type msgAuditTick struct{}

// auditStatus is a probe reply's verdict about the probed record.
type auditStatus uint8

const (
	// auditOK: the record exists and lists the prober as its parent;
	// the reply carries its audited fields.
	auditOK auditStatus = iota + 1
	// auditGone: the owner holds no such record — the prober's child
	// pointer dangles.
	auditGone
	// auditForeign: the record exists but its parent field disagrees
	// with the prober (it names someone else, or an adoption is still
	// unconfirmed).
	auditForeign
	// auditBusy: the owner (or the record) is inside a live repair
	// epoch; the audit defers rather than racing the repair machinery.
	auditBusy
)

// msgAuditProbe asks the owner of one tree node to report that node's
// audited fields. Parent is the probing helper — the prober believes
// Target is its Side child (0 left, 1 right).
type msgAuditProbe struct {
	Target addr
	Parent addr
	Side   int
}

// msgAuditReply answers a probe with the target record's O(1)-word
// summary: the fields the prober folds (audit.Sum) to recompute its
// own aggregates. Kind/Height/LeafCount/Rep are meaningful only when
// Status is auditOK.
type msgAuditReply struct {
	Target addr
	Parent addr
	Side   int
	Status auditStatus
	Kind   kind
	Height int
	Count  int
	Rep    slot
}

// auditVerdict is a claim reply's verdict about the claimed link.
type auditVerdict uint8

const (
	// auditVMine: the target record lists the claimant as a child (or
	// just adopted it into a confirmed-dangling side).
	auditVMine auditVerdict = iota + 1
	// auditVMissing: the owner holds no such record — the claimant's
	// parent pointer dangles.
	auditVMissing
	// auditVDeny: the record exists but does not list the claimant.
	auditVDeny
	// auditVBusy: the owner or record is inside a live repair epoch.
	auditVBusy
)

// msgAuditClaim asks the parent a child records to confirm the link:
// "is Child one of Target's children?"
type msgAuditClaim struct {
	Child  addr
	Target addr
}

// msgAuditVerdict answers a claim.
type msgAuditVerdict struct {
	Child   addr
	Target  addr
	Verdict auditVerdict
}

// words counts for the accounting (number of O(log n)-bit scalars).
// The epoch tag costs one word on every message that carries it; since
// the open-loop engine, that includes the merge-plan instructions
// (create-helper, set-parent), whose epoch-tagged acks are the in-band
// repair-completion proof. The election and sync messages are charged
// like everything else — in-band coordination is exactly the cost this
// accounting exists to expose.
const (
	wordsDeath        = 4 // V doubles as the epoch; 3 BT_v links
	wordsDeathLed     = 5 // + the pre-appointed leader (coalesced merge)
	wordsChampion     = 3
	wordsLeader       = 3
	wordsMarkDamaged  = 6
	wordsWalkAck      = 2
	wordsSubtreeDone  = 2
	wordsPhaseDone    = 2
	wordsRootAnnounce = 5
	wordsFreshLeaf    = 4
	wordsKeyProbe     = 8
	wordsKeyFound     = 6
	wordsKeyNone      = 4
	wordsStripVisit   = 13
	wordsStripAck     = 5
	wordsStripDone    = 2
	wordsMergeAck     = 1
	wordsDescriptor   = 13
	wordsCreateHelper = 16
	wordsSetParent    = 7

	// Audit traffic (ClassAudit). Every message is O(1) words — the
	// audit's overhead guarantee is per-message, not amortized.
	wordsAuditProbe   = 7  // target addr 3, parent addr 3, side 1
	wordsAuditReply   = 13 // probe echo 7, status 1, kind 1, height 1, count 1, rep 2
	wordsAuditClaim   = 6  // child addr 3, target addr 3
	wordsAuditVerdict = 7  // claim echo 6, verdict 1
)
