package dist

import "repro/internal/wirenet"

// Wire-codec registration: every payload type the protocol puts ON THE
// NETWORK gets a stable frame tag, so the wire backend can serialize
// it across process boundaries. The timer-only payloads
// (msgBeginRepair, msgPhaseWatch, msgFlushOutbox, msgAuditTick) are
// deliberately absent — timers are hub-local wake-ups and never cross
// a socket.
//
// Tags are part of the wire format between the hub and its worker
// processes of ONE run (hub and workers are the same binary, so both
// sides always agree); they still must not be reused within a binary,
// which the registry enforces at init time. Tags 18–23 belonged to the
// retired batch claim phase and stay unused rather than renumbering
// the tags after them.
func init() {
	wirenet.RegisterPayload(1, msgDeath{})
	wirenet.RegisterPayload(2, msgChampion{})
	wirenet.RegisterPayload(3, msgLeader{})
	wirenet.RegisterPayload(4, msgMarkDamaged{})
	wirenet.RegisterPayload(5, msgWalkAck{})
	wirenet.RegisterPayload(6, msgSubtreeDone{})
	wirenet.RegisterPayload(7, msgPhaseDone{})
	wirenet.RegisterPayload(8, msgRootAnnounce{})
	wirenet.RegisterPayload(9, msgFreshLeaf{})
	wirenet.RegisterPayload(10, msgKeyProbe{})
	wirenet.RegisterPayload(11, msgKeyFound{})
	wirenet.RegisterPayload(12, msgKeyNone{})
	wirenet.RegisterPayload(13, msgStripVisit{})
	wirenet.RegisterPayload(14, msgStripAck{})
	wirenet.RegisterPayload(15, msgStripDone{})
	wirenet.RegisterPayload(16, msgMergeAck{})
	wirenet.RegisterPayload(17, msgDescriptor{})
	wirenet.RegisterPayload(24, msgCreateHelper{})
	wirenet.RegisterPayload(25, msgSetParent{})
	wirenet.RegisterPayload(26, msgAuditProbe{})
	wirenet.RegisterPayload(27, msgAuditReply{})
	wirenet.RegisterPayload(28, msgAuditClaim{})
	wirenet.RegisterPayload(29, msgAuditVerdict{})
}
