package dram

import "fmt"

// DeviceState is an opaque snapshot of a Device's mutable state: bank
// timing/row/attribution state, per-channel bus state, and the served
// counters.
type DeviceState struct {
	banks        []bankState
	buses        []busState
	servedReads  int64
	servedWrites int64
}

// Snapshot captures the device's mutable state. The snapshot shares no
// memory with the device and stays valid however the device advances.
func (d *Device) Snapshot() *DeviceState {
	return &DeviceState{
		banks:        append([]bankState(nil), d.banks...),
		buses:        append([]busState(nil), d.buses...),
		servedReads:  d.servedReads,
		servedWrites: d.servedWrites,
	}
}

// Restore overwrites the device's mutable state from a snapshot taken on a
// device with the same geometry. The snapshot is not consumed: the same
// state may restore any number of devices (forking).
func (d *Device) Restore(st *DeviceState) error {
	if st == nil {
		return fmt.Errorf("dram: nil device state")
	}
	if len(st.banks) != len(d.banks) || len(st.buses) != len(d.buses) {
		return fmt.Errorf("dram: geometry mismatch: state has %d banks/%d buses, device has %d/%d",
			len(st.banks), len(st.buses), len(d.banks), len(d.buses))
	}
	copy(d.banks, st.banks)
	copy(d.buses, st.buses)
	d.servedReads = st.servedReads
	d.servedWrites = st.servedWrites
	return nil
}
