package platform

import (
	"repro/internal/c6x"
	"repro/internal/core"
	"repro/internal/iss"
)

// This file binds the region boundary to the sync device: the translated
// code's base SyncStart store, its correction stores (SyncStart in the
// two-drain shape, SyncAdd in the single-drain one) and its drain load
// run as direct calls from fused code (c6x.FuseConfig.Bind) instead of
// going through the MemPort and Load/Store's address decode. The
// translator reaches the device only through core.RegSyncBase at fixed
// offsets, which is how the accesses are recognized.

// baseStarts maps each packet to the region whose base start it holds:
// the first SyncStart store among the region's packets (-1 elsewhere).
// In the two-drain correction shape a region writes SyncStart again from
// a later packet; that generation credits nothing.
func baseStarts(prog *core.Program) []int32 {
	startOf := make([]int32, len(prog.C6x.Packets))
	for i := range startOf {
		startOf[i] = -1
	}
	for ri, b := range prog.Blocks {
		end := len(startOf)
		if ri+1 < len(prog.Blocks) {
			end = prog.Blocks[ri+1].PacketStart
		}
	scan:
		for p := b.PacketStart; p < end; p++ {
			insts := prog.C6x.Packets[p].Insts
			for i := range insts {
				if insts[i].Op.IsStore() && syncOffset(&insts[i]) == core.SyncStart-core.SyncBase {
					startOf[p] = int32(ri)
					break scan
				}
			}
		}
	}
	return startOf
}

// syncOffset returns the offset of a sync-device access from
// RegSyncBase, or -1 for any other instruction.
func syncOffset(in *c6x.Inst) int32 {
	if !in.Op.IsMem() || in.Src1.IsImm || in.Src1.Reg != core.RegSyncBase {
		return -1
	}
	return in.Src2.Imm
}

// syncBinder returns the fused build's FuseConfig.Bind: the base start
// (carrying its region's ordinal from baseStarts), the correction starts,
// the SyncAdd store and the drain load. Each handler keeps a guard: the
// computed address must be the register it was bound to and the port a
// *System, or the access takes the ordinary MemPort path. Nothing is
// bound where the RAM window could cover the device, because a store
// there would reach RAM first on the ordinary path. The base-start table
// is built on the first call: every NewWithEngine supplies a binder, but
// only a program's first fused build calls it.
func syncBinder(prog *core.Program, rBase uint32) func(int, c6x.Inst) c6x.DeviceAccess {
	if uint64(rBase) < core.SyncAdd+4 && uint64(rBase)+iss.RAMSize > core.SyncStart {
		return nil
	}
	var startOf []int32
	return func(pkt int, in c6x.Inst) c6x.DeviceAccess {
		off := syncOffset(&in)
		switch {
		case in.Op == c6x.STW && off == core.SyncStart-core.SyncBase:
			if startOf == nil {
				startOf = baseStarts(prog)
			}
			if ri := startOf[pkt]; ri >= 0 {
				return func(mem c6x.MemPort, addr, val uint32, now int64) (uint32, int64, bool) {
					sys, ok := mem.(*System)
					if !ok || addr != core.SyncStart {
						return 0, 0, false
					}
					sys.credit(ri)
					sys.Sync.Start(val, now)
					return 0, now, true
				}
			}
			return syncCorrStart
		case in.Op == c6x.STW && off == core.SyncAdd-core.SyncBase:
			return syncAdd
		case in.Op == c6x.LDW && off == core.SyncStart-core.SyncBase:
			return syncDrain
		}
		return nil
	}
}

// syncCorrStart is a correction generation's SyncStart store.
func syncCorrStart(mem c6x.MemPort, addr, val uint32, now int64) (uint32, int64, bool) {
	sys, ok := mem.(*System)
	if !ok || addr != core.SyncStart {
		return 0, 0, false
	}
	sys.Sync.Start(val, now)
	return 0, now, true
}

// syncAdd is the single-drain correction flush into the ADD register.
func syncAdd(mem c6x.MemPort, addr, val uint32, now int64) (uint32, int64, bool) {
	sys, ok := mem.(*System)
	if !ok || addr != core.SyncAdd {
		return 0, 0, false
	}
	sys.Sync.Add(val, now)
	return 0, now, true
}

// syncDrain is the blocking read that waits for the generation to end.
func syncDrain(mem c6x.MemPort, addr, _ uint32, now int64) (uint32, int64, bool) {
	sys, ok := mem.(*System)
	if !ok || addr != core.SyncStart {
		return 0, 0, false
	}
	return 0, sys.Sync.Drain(now), true
}
