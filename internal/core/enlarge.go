// Package core implements the paper's primary contribution: the block
// enlargement optimization for block-structured ISAs (§2 and §4.2 of Hao,
// Chang, Evers, Patt, MICRO-29 1996), plus the superblock-style
// static-prediction enlarger used as a related-work baseline (§3, figure 2).
//
// Block enlargement combines an atomic block with its control-flow
// successors. Combining a block that ends in a trap with successor T on the
// trap-taken side produces a new enlarged variant whose ops are the
// original block's ops, a fault operation (firing when the trap condition
// says T should NOT have followed), and T's ops. The fault's target is the
// sibling variant that handles the other path. Every predecessor's successor
// list replaces the original block with the variant set, grouped by the
// predecessor's own trap outcome; the dynamic branch predictor picks among
// the variants (up to eight successors, three prediction bits).
//
// The five termination rules of §4.2 are enforced:
//
//  1. enlarged blocks never exceed the issue width (MaxOps, 16);
//  2. at most MaxFaults (2) fault operations per block, which bounds any
//     block's successor count at MaxSuccs (8);
//  3. blocks connected by call, return, or indirect-jump edges are never
//     combined, and call continuations / function entries never fork (their
//     incoming control transfers cannot name variant sets);
//  4. separate loop iterations are never combined (no merging along CFG
//     back edges, and a block never absorbs a copy of itself);
//  5. library blocks are never combined.
package core

import (
	"fmt"

	"bsisa/internal/isa"
)

// Params configures the enlargement pass.
type Params struct {
	// MaxOps caps the operation count of an enlarged block. Zero means the
	// paper's value, 16 (the issue width).
	MaxOps int
	// MaxFaults caps fault operations per block. Zero means the paper's
	// value, 2. (To disable faults entirely — unconditional merging only —
	// use -1.)
	MaxFaults int
	// MaxSuccs caps any block's successor-list length. Zero means the
	// paper's value, 8.
	MaxSuccs int
	// Static selects superblock-style enlargement (figure 2): a block is
	// combined only with its statically predicted successor, and the
	// original block remains as the recovery variant. Requires Profile.
	Static bool
	// Profile supplies per-block trap bias, required when Static is set and
	// optional otherwise (see MinBias).
	Profile Profile
	// MinBias, when positive and a profile is present, stops conditional
	// forking of blocks whose trap bias (majority direction frequency) is
	// below the threshold — the paper's §6 proposal for reducing icache
	// pressure from duplicating unbiased branches.
	MinBias float64
	// UnsafeDisableRule4, when set, skips rule 4's back-edge and
	// repeated-origin guards so the pass merges separate loop iterations.
	// FOR FAULT INJECTION ONLY: cmd/bsfuzz's -inject mode uses it to prove
	// the internal/check provenance audit catches rule violations. Never set
	// it in a real build.
	UnsafeDisableRule4 bool
}

func (p Params) withDefaults() Params {
	if p.MaxOps == 0 {
		p.MaxOps = 16
	}
	if p.MaxFaults == 0 {
		p.MaxFaults = 2
	}
	if p.MaxFaults < 0 {
		p.MaxFaults = 0
	}
	if p.MaxSuccs == 0 {
		p.MaxSuccs = 8
	}
	return p
}

// BranchProfile records a block's observed trap outcomes.
type BranchProfile struct {
	Taken, NotTaken int64
}

// Bias returns the majority-direction frequency in [0.5, 1], or 0 when the
// block was never observed.
func (b BranchProfile) Bias() float64 {
	total := b.Taken + b.NotTaken
	if total == 0 {
		return 0
	}
	maj := b.Taken
	if b.NotTaken > maj {
		maj = b.NotTaken
	}
	return float64(maj) / float64(total)
}

// Profile maps block IDs to observed trap outcomes.
type Profile map[isa.BlockID]BranchProfile

// Stats reports what the pass did.
type Stats struct {
	UncondMerges  int // in-place merges along unconditional edges
	Forks         int // conditional blocks forked into merged variants
	AsymForks     int // of which only one side merged (original retained)
	BlocksCreated int
	BlocksRemoved int // original blocks made unreachable and dropped
	OpsBefore     int
	OpsAfter      int
	BytesBefore   uint32
	BytesAfter    uint32
	// Provenance records how the pass composed each surviving block, for
	// post-hoc rule auditing (internal/check.Enlargement).
	Provenance *Provenance
}

// Provenance is the enlargement pass's audit trail: enough of the pass's
// internal bookkeeping to re-verify the §4.2 termination rules on the final
// program without re-running the pass.
type Provenance struct {
	// Chains maps every live block to the ordered list of original block IDs
	// whose operations it now contains (a one-element chain for blocks the
	// pass never touched). Consecutive chain entries are original CFG edges
	// the pass merged across.
	Chains map[isa.BlockID][]isa.BlockID
	// BackEdges holds the loop-closing edges of the original intra-function
	// CFG (keyed [from, to] in original block IDs).
	BackEdges map[[2]isa.BlockID]bool
	// Library marks original block IDs that belonged to library code
	// (rule 5: these may never be combined).
	Library map[isa.BlockID]bool
	// UncondEdges holds the unconditional intra-function edges of the
	// original CFG (keyed [from, to] in original block IDs). The
	// BasicBlocker reshape pass records it so internal/check can verify
	// every merge happened across such an edge; the enlarger leaves it nil.
	UncondEdges map[[2]isa.BlockID]bool
}

// CodeGrowth returns static code expansion (bytes after / bytes before).
func (s *Stats) CodeGrowth() float64 {
	if s.BytesBefore == 0 {
		return 1
	}
	return float64(s.BytesAfter) / float64(s.BytesBefore)
}

// enlarger carries the pass state for one program.
type enlarger struct {
	p      *isa.Program
	params Params
	// preds indexes static predecessors: preds[b] lists blocks whose Succs
	// contain b (each pred listed once even if it names b twice).
	preds map[isa.BlockID][]isa.BlockID
	// noFork marks blocks whose incoming transfers cannot address variant
	// sets: function entries (call targets) and call continuations (return
	// targets).
	noFork map[isa.BlockID]bool
	// backEdge marks original CFG edges from->to that close loops.
	backEdge map[[2]isa.BlockID]bool
	// tailOrigin maps a block to the original block whose successor edges
	// it currently ends with (itself for originals); used for back-edge
	// checks on the evolving CFG.
	tailOrigin map[isa.BlockID]isa.BlockID
	// chain lists the original blocks merged into each block, for rule 4's
	// no-self-absorption check.
	chain map[isa.BlockID][]isa.BlockID
	// origLibrary records which original blocks were library code, for the
	// provenance snapshot (originals may be swept before it is taken).
	origLibrary map[isa.BlockID]bool
	// processed guards the worklist.
	processed map[isa.BlockID]bool
	// forward maps a block removed by a symmetric fork to the variant that
	// replaces it as a fault target (see resolveFaults).
	forward map[isa.BlockID]isa.BlockID
	stats   Stats
}

// Enlarge applies the block enlargement optimization in place to a
// block-structured program. The program is laid out and validated before
// returning.
func Enlarge(p *isa.Program, params Params) (*Stats, error) {
	if p.Kind != isa.BlockStructured {
		return nil, fmt.Errorf("core: enlargement requires a block-structured program, got %s", p.Kind)
	}
	params = params.withDefaults()
	if params.Static && params.Profile == nil {
		return nil, fmt.Errorf("core: static (superblock) enlargement requires a profile")
	}
	e := &enlarger{
		p:           p,
		params:      params,
		preds:       map[isa.BlockID][]isa.BlockID{},
		noFork:      map[isa.BlockID]bool{},
		backEdge:    map[[2]isa.BlockID]bool{},
		tailOrigin:  map[isa.BlockID]isa.BlockID{},
		chain:       map[isa.BlockID][]isa.BlockID{},
		origLibrary: map[isa.BlockID]bool{},
		processed:   map[isa.BlockID]bool{},
		forward:     map[isa.BlockID]isa.BlockID{},
	}
	p.Layout()
	e.stats.OpsBefore = p.StaticOps()
	e.stats.BytesBefore = p.CodeBytes()

	e.buildIndexes()

	// Process every block, entries first (the paper starts from each
	// function's first block and recurses through newly formed blocks).
	var work []isa.BlockID
	for _, f := range p.Funcs {
		work = append(work, f.Entry)
	}
	for _, b := range p.Blocks {
		if b != nil {
			work = append(work, b.ID)
		}
	}
	for len(work) > 0 {
		id := work[0]
		work = work[1:]
		if e.processed[id] || p.Block(id) == nil {
			continue
		}
		e.processed[id] = true
		created := e.process(id)
		work = append(work, created...)
	}

	e.resolveFaults()
	e.sweepUnreachable()
	e.syncTrapTargets()
	p.Layout()
	e.stats.OpsAfter = p.StaticOps()
	e.stats.BytesAfter = p.CodeBytes()
	e.stats.Provenance = e.provenance()
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("core: enlargement produced invalid program: %w", err)
	}
	return &e.stats, nil
}

// provenance snapshots the pass bookkeeping for surviving blocks.
func (e *enlarger) provenance() *Provenance {
	prov := &Provenance{
		Chains:    make(map[isa.BlockID][]isa.BlockID),
		BackEdges: make(map[[2]isa.BlockID]bool, len(e.backEdge)),
		Library:   e.origLibrary,
	}
	for _, b := range e.p.Blocks {
		if b == nil {
			continue
		}
		prov.Chains[b.ID] = append([]isa.BlockID(nil), e.chain[b.ID]...)
	}
	for k, v := range e.backEdge {
		if v {
			prov.BackEdges[k] = true
		}
	}
	return prov
}

// buildIndexes fills preds, noFork, backEdge and provenance maps.
func (e *enlarger) buildIndexes() {
	p := e.p
	for _, f := range p.Funcs {
		e.noFork[f.Entry] = true
	}
	for _, b := range p.Blocks {
		if b == nil {
			continue
		}
		e.tailOrigin[b.ID] = b.ID
		e.chain[b.ID] = []isa.BlockID{b.ID}
		if b.Library {
			e.origLibrary[b.ID] = true
		}
		if b.Cont != isa.NoBlock {
			e.noFork[b.Cont] = true
		}
		if t := b.Terminator(); t != nil && t.Opcode == isa.JR {
			// Jump-table targets are addressed from rodata by final block
			// ID; they may grow in place but never fork (rule 3: blocks
			// connected via indirect jumps are not combined).
			for _, s := range b.Succs {
				e.noFork[s] = true
			}
		}
		for _, s := range b.Succs {
			e.addPred(s, b.ID)
		}
	}
	// Back edges per function over the intra-function CFG, found by DFS:
	// an edge to a block on the current DFS stack closes a loop. MiniC's
	// structured control flow yields reducible CFGs, where this matches the
	// dominator-based definition.
	state := map[isa.BlockID]int{} // 0 unvisited, 1 on stack, 2 done
	var dfs func(id isa.BlockID)
	dfs = func(id isa.BlockID) {
		state[id] = 1
		for _, s := range e.intraSuccs(id) {
			switch state[s] {
			case 0:
				dfs(s)
			case 1:
				e.backEdge[[2]isa.BlockID{id, s}] = true
			}
		}
		state[id] = 2
	}
	for _, f := range p.Funcs {
		if state[f.Entry] == 0 {
			dfs(f.Entry)
		}
	}
}

// intraSuccs returns a block's intra-function control successors: a call
// block's intra-function continuation is Cont (the callee entry is an
// inter-function edge), return blocks have none.
func (e *enlarger) intraSuccs(id isa.BlockID) []isa.BlockID {
	b := e.p.Block(id)
	if b == nil {
		return nil
	}
	if t := b.Terminator(); t != nil {
		switch t.Opcode {
		case isa.CALL:
			if b.Cont != isa.NoBlock {
				return []isa.BlockID{b.Cont}
			}
			return nil
		case isa.RET, isa.JR, isa.HALT:
			return nil
		}
	}
	return b.Succs
}

func (e *enlarger) addPred(succ, pred isa.BlockID) {
	for _, q := range e.preds[succ] {
		if q == pred {
			return
		}
	}
	e.preds[succ] = append(e.preds[succ], pred)
}

func (e *enlarger) removePred(succ, pred isa.BlockID) {
	ps := e.preds[succ]
	for i, q := range ps {
		if q == pred {
			e.preds[succ] = append(ps[:i], ps[i+1:]...)
			return
		}
	}
}

// process enlarges one block as far as the rules allow, returning any newly
// created variant blocks that still need processing.
func (e *enlarger) process(id isa.BlockID) []isa.BlockID {
	// First: in-place merging along unconditional edges (no fault needed).
	for {
		b := e.p.Block(id)
		t := b.Terminator()
		if t != nil || len(b.Succs) != 1 {
			break
		}
		s := b.Succs[0]
		if !e.mergeable(b, s, false) {
			break
		}
		e.mergeInPlace(b, e.p.Block(s))
		e.stats.UncondMerges++
	}

	b := e.p.Block(id)
	term := b.Terminator()
	if term == nil || term.Opcode != isa.TRAP {
		return nil
	}
	if b.TakenCount != 1 || len(b.Succs) != 2 {
		// A side already holds a variant set; merging with a set is not
		// defined (the paper builds variants top-down).
		return nil
	}
	if e.params.MaxFaults == 0 {
		return nil
	}
	if e.params.MinBias > 0 || e.params.Static {
		bias := e.params.Profile[e.tailOrigin[id]].Bias()
		if e.params.MinBias > 0 && bias < e.params.MinBias {
			return nil
		}
	}

	taken, fall := b.Succs[0], b.Succs[1]
	planT := e.mergeable(b, taken, true)
	planF := e.mergeable(b, fall, true)
	if e.params.Static {
		// Superblock mode (figure 2): merge only the statically predicted
		// majority direction; the original block remains as the recovery
		// variant.
		prof := e.params.Profile[e.tailOrigin[id]]
		if prof.Taken >= prof.NotTaken {
			planF = false
		} else {
			planT = false
		}
	}
	if !planT && !planF {
		return nil
	}
	if e.noFork[id] {
		return nil
	}
	// Predecessor capacity (rule 2's successor bound).
	growth := 0
	if planT {
		growth++
	}
	if planF {
		growth++
	}
	// Variants replace b: both plans remove b (net +1 per plan -1), one
	// plan keeps b (net +1).
	net := growth
	if planT && planF {
		net = 1
	}
	for _, q := range e.preds[id] {
		qb := e.p.Block(q)
		occurrences := 0
		for _, s := range qb.Succs {
			if s == id {
				occurrences++
			}
		}
		if len(qb.Succs)+occurrences*net > e.params.MaxSuccs {
			// Shed the fall-through plan first, then give up.
			if planT && planF {
				planF = false
				net = 1
				if len(qb.Succs)+occurrences*net <= e.params.MaxSuccs {
					continue
				}
			}
			return nil
		}
	}
	if !planT && !planF {
		return nil
	}
	return e.fork(b, planT, planF)
}

// mergeable reports whether block b may absorb successor s. conditional
// selects the trap-conversion form (one fault is added).
func (e *enlarger) mergeable(b *isa.Block, sid isa.BlockID, conditional bool) bool {
	s := e.p.Block(sid)
	if s == nil || s == b {
		return false
	}
	if s.Func != b.Func {
		return false
	}
	// Rule 5: library blocks are never combined.
	if b.Library || s.Library {
		return false
	}
	// Rule 3: call/return/indirect edges never merge. (b ending in CALL or
	// RET has no mergeable successors; s being a function entry or call
	// continuation is only reachable through such edges or as a static
	// successor, and static edges to entries do not exist.)
	if t := b.Terminator(); t != nil {
		switch t.Opcode {
		case isa.CALL, isa.RET, isa.JR, isa.HALT:
			return false
		}
	}
	// Rule 4: no merging along loop back edges, and a block never absorbs
	// a copy of a block already in its chain (separate iterations).
	if !e.params.UnsafeDisableRule4 {
		// The evolving edge b->s stands for the original CFG edge from b's
		// tail origin to the HEAD of s's chain: s begins with the code of
		// the first original it absorbed. Testing s's tail origin instead
		// checks an edge that never existed — it both misses real back
		// edges (s's head closes the loop, its tail does not) and
		// spuriously blocks legal merges.
		head := sid
		if ch := e.chain[sid]; len(ch) > 0 {
			head = ch[0]
		}
		if e.backEdge[[2]isa.BlockID{e.tailOrigin[b.ID], head}] {
			return false
		}
		// No original block may appear twice in the combined chain
		// (absorbing a copy combines separate loop iterations). s's chain
		// may already hold several originals, so the whole chains must be
		// disjoint, not just b's chain versus s's tail.
		for _, o := range e.chain[b.ID] {
			for _, so := range e.chain[sid] {
				if o == so {
					return false
				}
			}
		}
	}
	// Rule 1: size.
	if len(b.Ops)+len(s.Ops) > e.params.MaxOps {
		return false
	}
	// Rule 2: faults.
	added := 0
	if conditional {
		added = 1
	}
	if b.NumFaults()+s.NumFaults()+added > e.params.MaxFaults {
		return false
	}
	return true
}

// mergeInPlace absorbs s's operations into b along b's unconditional edge.
// s itself remains (other predecessors may still reach it); if it becomes
// unreachable the final sweep removes it.
func (e *enlarger) mergeInPlace(b *isa.Block, s *isa.Block) {
	e.removePred(s.ID, b.ID)
	b.Ops = append(b.Ops, s.Ops...)
	b.Succs = append([]isa.BlockID(nil), s.Succs...)
	b.TakenCount = s.TakenCount
	b.HistBits = s.HistBits
	b.Cont = s.Cont
	if s.Cont != isa.NoBlock {
		e.noFork[s.Cont] = true
	}
	for _, n := range s.Succs {
		e.addPred(n, b.ID)
	}
	e.tailOrigin[b.ID] = e.tailOrigin[s.ID]
	e.chain[b.ID] = append(e.chain[b.ID], e.chain[s.ID]...)
}

// fork replaces conditional block b with merged variants. planT/planF select
// which sides merge; at least one must be set. When only one side merges the
// original block is retained as the recovery variant (asymmetric fork, also
// the superblock form).
func (e *enlarger) fork(b *isa.Block, planT, planF bool) []isa.BlockID {
	takenID, fallID := b.Succs[0], b.Succs[1]
	trap := b.Ops[len(b.Ops)-1]
	prefix := b.Ops[:len(b.Ops)-1]

	mkVariant := func(sid isa.BlockID, whenTaken bool) *isa.Block {
		s := e.p.Block(sid)
		nb := isa.NewBlock(b.Func)
		nb.Library = b.Library
		nb.Ops = make([]isa.Op, 0, len(prefix)+1+len(s.Ops))
		nb.Ops = append(nb.Ops, prefix...)
		// The fault fires when the merged direction was wrong: a
		// taken-side variant faults when the trap condition is zero.
		nb.Ops = append(nb.Ops, isa.Op{
			Opcode:  isa.FAULT,
			Rs1:     trap.Rs1,
			FaultNZ: !whenTaken,
			// Target patched below once the sibling exists.
		})
		nb.Ops = append(nb.Ops, s.Ops...)
		nb.Succs = append([]isa.BlockID(nil), s.Succs...)
		nb.TakenCount = s.TakenCount
		nb.HistBits = s.HistBits
		nb.Cont = s.Cont
		e.p.AddBlock(nb)
		e.tailOrigin[nb.ID] = e.tailOrigin[sid]
		e.chain[nb.ID] = append(append([]isa.BlockID(nil), e.chain[b.ID]...), e.chain[sid]...)
		for _, n := range nb.Succs {
			e.addPred(n, nb.ID)
		}
		if nb.Cont != isa.NoBlock {
			e.noFork[nb.Cont] = true
		}
		e.stats.BlocksCreated++
		return nb
	}

	var bT, bF *isa.Block
	if planT {
		bT = mkVariant(takenID, true)
	}
	if planF {
		bF = mkVariant(fallID, false)
	}
	e.stats.Forks++

	// Fault targets: each variant's fault redirects to the sibling that
	// handles the other direction; with one variant the original block b
	// (which re-executes the prefix and traps normally) is the sibling.
	var replacement []isa.BlockID
	faultIdx := len(prefix)
	switch {
	case planT && planF:
		bT.Ops[faultIdx].Target = bF.ID
		bF.Ops[faultIdx].Target = bT.ID
		replacement = []isa.BlockID{bT.ID, bF.ID}
	case planT:
		bT.Ops[faultIdx].Target = b.ID
		replacement = []isa.BlockID{bT.ID, b.ID}
		e.stats.AsymForks++
	case planF:
		bF.Ops[faultIdx].Target = b.ID
		replacement = []isa.BlockID{bF.ID, b.ID}
		e.stats.AsymForks++
	}

	removeOriginal := planT && planF
	e.replaceInPreds(b.ID, replacement, removeOriginal)

	if removeOriginal {
		// Faults elsewhere that redirected to b must redirect to a variant
		// that begins with b's prefix; any variant is architecturally
		// correct (its own fault chains onward), use the canonical first.
		// resolveFaults applies the redirect once the pass is done. b keeps
		// its edges until the sweep confirms it unreachable.
		e.forward[b.ID] = replacement[0]
	}

	var created []isa.BlockID
	if bT != nil {
		created = append(created, bT.ID)
	}
	if bF != nil {
		created = append(created, bF.ID)
	}
	return created
}

// replaceInPreds rewrites every predecessor's successor list, replacing old
// with the replacement sequence (which may include old itself, in the
// asymmetric case).
func (e *enlarger) replaceInPreds(old isa.BlockID, repl []isa.BlockID, removeOld bool) {
	preds := append([]isa.BlockID(nil), e.preds[old]...)
	for _, q := range preds {
		qb := e.p.Block(q)
		var out []isa.BlockID
		newTaken := qb.TakenCount
		for i, s := range qb.Succs {
			if s != old {
				out = append(out, s)
				continue
			}
			out = append(out, repl...)
			if i < qb.TakenCount {
				newTaken += len(repl) - 1
			}
		}
		qb.Succs = out
		qb.TakenCount = newTaken
		qb.RecomputeHistBits()
		for _, r := range repl {
			e.addPred(r, q)
		}
		if removeOld {
			e.removePred(old, q)
		} else {
			// old may no longer appear if repl did not include it.
			still := false
			for _, s := range qb.Succs {
				if s == old {
					still = true
				}
			}
			if !still {
				e.removePred(old, q)
			}
		}
	}
}

// resolveFaults redirects every fault operation whose target a symmetric
// fork removed, following forward to the surviving variant. Deferring the
// redirect to one pass gives the same targets as rewriting every fault in
// the program at each fork, because:
//
//   - block IDs are never reused, so a forwarded ID names only the removed
//     block;
//   - each forward entry points to a block created by that fork, whose ID is
//     newer than the removed block's, so chains are acyclic and end at a
//     block no symmetric fork removed;
//   - nothing reads a fault target between a fork and this pass: variants
//     copy fault operations verbatim, and copies resolve through the same
//     chain as their originals.
func (e *enlarger) resolveFaults() {
	for _, b := range e.p.Blocks {
		if b == nil {
			continue
		}
		for i := range b.Ops {
			op := &b.Ops[i]
			if op.Opcode != isa.FAULT {
				continue
			}
			for {
				next, ok := e.forward[op.Target]
				if !ok {
					break
				}
				op.Target = next
			}
		}
	}
}

// sweepUnreachable removes blocks unreachable from any function entry via
// successor edges, continuations, and fault targets.
func (e *enlarger) sweepUnreachable() {
	p := e.p
	reach := map[isa.BlockID]bool{}
	var stack []isa.BlockID
	push := func(id isa.BlockID) {
		if id != isa.NoBlock && !reach[id] && p.Block(id) != nil {
			reach[id] = true
			stack = append(stack, id)
		}
	}
	for _, f := range p.Funcs {
		push(f.Entry)
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		b := p.Block(id)
		for _, s := range b.Succs {
			push(s)
		}
		push(b.Cont)
		for i := range b.Ops {
			if b.Ops[i].Opcode == isa.FAULT {
				push(b.Ops[i].Target)
			}
		}
	}
	for i, b := range p.Blocks {
		if b != nil && !reach[b.ID] {
			p.Blocks[i] = nil
			e.stats.BlocksRemoved++
		}
	}
}

// syncTrapTargets keeps each trap op's explicit target field pointing at the
// canonical taken-side variant (encoding hygiene; predictors use block
// metadata).
func (e *enlarger) syncTrapTargets() {
	for _, b := range e.p.Blocks {
		if b == nil || len(b.Ops) == 0 {
			continue
		}
		last := &b.Ops[len(b.Ops)-1]
		if last.Opcode == isa.TRAP && len(b.Succs) > 0 {
			last.Target = b.Succs[0]
		}
	}
}
