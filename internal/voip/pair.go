package voip

import (
	"time"

	"bufferqoe/internal/netem"
	"bufferqoe/internal/qoe"
)

// PairResult is the outcome of a bidirectional call: both direction
// results rescored with the shared conversational delay impairment.
//
// Section 7.2 of the paper: the delay impairment z2 "expresses the
// conversational quality, it does not only effect the 'user talks'
// but also the 'user listen' part sent over the (non-congested)
// downlink" — so both directions share one conversational delay, the
// mean of the two one-way delays.
type PairResult struct {
	Listen, Talk Result
	// ConversationalDelay is the symmetrized one-way delay used for
	// the z2 component of both scores.
	ConversationalDelay time.Duration
}

// StartPair runs a full bidirectional call between the user (client)
// and the remote speaker (server): the listen direction streams
// server -> client, the talk direction client -> server. onDone fires
// when both directions have been evaluated.
func StartPair(client, server *netem.Node, listen, talk []bool, playout time.Duration, onDone func(PairResult)) {
	var listenRes, talkRes *Result
	finish := func() {
		if listenRes == nil || talkRes == nil {
			return
		}
		conv := (listenRes.OneWayDelay + talkRes.OneWayDelay) / 2
		pr := PairResult{Listen: *listenRes, Talk: *talkRes, ConversationalDelay: conv}
		pr.Listen.OneWayDelay = conv
		pr.Talk.OneWayDelay = conv
		pr.Listen.MOS = qoe.VoIPScore(pr.Listen.Z1, conv)
		pr.Talk.MOS = qoe.VoIPScore(pr.Talk.Z1, conv)
		if onDone != nil {
			onDone(pr)
		}
	}
	Start(server, client, listen, playout, func(r Result) {
		listenRes = &r
		finish()
	})
	Start(client, server, talk, playout, func(r Result) {
		talkRes = &r
		finish()
	})
}
