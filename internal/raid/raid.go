// Package raid implements software RAID over simulated drives, to answer a
// question the paper's data-center framing raises immediately: does
// redundancy protect a submerged rack from an acoustic attack? The answer
// the simulation gives — no, when every member shares the enclosure the
// attack is a common-mode failure; yes, partially, when the array spans
// acoustically separate containers — is exactly the kind of deployment
// guidance the paper calls for in §5.
//
// Levels implemented: RAID-0 (striping), RAID-1 (mirroring), and RAID-5
// (striping with rotating parity), over any blockdev.Device members.
//
// A member is only marked permanently failed after FailThreshold
// consecutive I/O errors, so a bounded acoustic burst degrades throughput
// instead of ejecting drives. Chunks whose redundant copies diverged during
// transient failures are tracked as stale, and reads avoid them.
package raid

import (
	"errors"
	"fmt"

	"deepnote/internal/blockdev"
)

// Level is the RAID level.
type Level int

// Supported levels.
const (
	RAID0 Level = 0
	RAID1 Level = 1
	RAID5 Level = 5
)

// String names the level.
func (l Level) String() string { return fmt.Sprintf("RAID-%d", int(l)) }

// Errors reported by the array.
var (
	// ErrDegraded means more members failed than the level tolerates.
	ErrDegraded = errors.New("raid: array has failed beyond redundancy")
	// ErrBadConfig reports invalid geometry.
	ErrBadConfig = errors.New("raid: invalid configuration")
)

// StripeSize is the striping unit in bytes.
const StripeSize = 64 << 10

// FailThreshold is the number of consecutive I/O errors after which a
// member is marked permanently failed; a successful request resets the
// member's streak. RAID-0 ignores the threshold: with no redundancy an
// unreadable chunk is data loss, so the first error fails the member
// immediately (as mdadm kicks a RAID-0 member on any error).
const FailThreshold = 3

// Stats counts the array's failure-handling activity.
type Stats struct {
	// TransientErrors counts member I/O errors absorbed (whether or not
	// they later crossed the threshold).
	TransientErrors int64
	// MemberFailures counts members marked permanently failed.
	MemberFailures int64
	// StaleChunks counts chunks marked stale after divergent writes.
	StaleChunks int64
	// StaleAccepted counts stale chunk reads served from on-media content
	// because no redundant source was available.
	StaleAccepted int64
}

// Array is a RAID set over block devices.
type Array struct {
	level   Level
	members []blockdev.Device
	// failed marks members the array has given up on (threshold crossed).
	failed []bool
	// streak counts consecutive I/O errors per member.
	streak []int
	// stale tracks member-local chunk bases whose on-media content
	// diverged from the array's logical content during a transient
	// failure; reads avoid them until a write lands on them again.
	stale []map[int64]struct{}
	stats Stats
	size  int64
}

// New assembles an array. RAID-0 and RAID-1 need ≥2 members, RAID-5 ≥3.
func New(level Level, members []blockdev.Device) (*Array, error) {
	min := 2
	if level == RAID5 {
		min = 3
	}
	if len(members) < min {
		return nil, fmt.Errorf("%w: %v needs at least %d members, got %d",
			ErrBadConfig, level, min, len(members))
	}
	switch level {
	case RAID0, RAID1, RAID5:
	default:
		return nil, fmt.Errorf("%w: unsupported level %d", ErrBadConfig, int(level))
	}
	memberSize := members[0].Size()
	for _, m := range members[1:] {
		if m.Size() < memberSize {
			memberSize = m.Size()
		}
	}
	memberSize -= memberSize % StripeSize
	a := &Array{
		level:   level,
		members: members,
		failed:  make([]bool, len(members)),
		streak:  make([]int, len(members)),
		stale:   make([]map[int64]struct{}, len(members)),
	}
	for i := range a.stale {
		a.stale[i] = make(map[int64]struct{})
	}
	switch level {
	case RAID0:
		a.size = memberSize * int64(len(members))
	case RAID1:
		a.size = memberSize
	case RAID5:
		a.size = memberSize * int64(len(members)-1)
	}
	return a, nil
}

// Size returns the usable capacity.
func (a *Array) Size() int64 { return a.size }

// Level returns the array's RAID level.
func (a *Array) Level() Level { return a.level }

// Stats returns a copy of the failure-handling counters.
func (a *Array) Stats() Stats { return a.stats }

// FailedMembers returns the indexes of members marked failed.
func (a *Array) FailedMembers() []int {
	var out []int
	for i, f := range a.failed {
		if f {
			out = append(out, i)
		}
	}
	return out
}

// StaleChunks returns the number of chunks currently awaiting repair.
func (a *Array) StaleChunks() int {
	n := 0
	for _, m := range a.stale {
		n += len(m)
	}
	return n
}

// Healthy reports whether the array can still serve all I/O.
func (a *Array) Healthy() bool {
	n := len(a.FailedMembers())
	switch a.level {
	case RAID0:
		return n == 0
	case RAID1:
		return n < len(a.members)
	case RAID5:
		return n <= 1
	}
	return false
}

func chunkBase(off int64) int64 { return off - off%StripeSize }

// memberError records one I/O error and fails the member at the threshold.
func (a *Array) memberError(i int) {
	a.stats.TransientErrors++
	a.streak[i]++
	if a.streak[i] >= FailThreshold {
		a.failMember(i)
	}
}

func (a *Array) failMember(i int) {
	if !a.failed[i] {
		a.failed[i] = true
		a.stats.MemberFailures++
	}
}

func (a *Array) memberOK(i int) { a.streak[i] = 0 }

func (a *Array) markStale(i int, off int64) {
	b := chunkBase(off)
	if _, ok := a.stale[i][b]; !ok {
		a.stale[i][b] = struct{}{}
		a.stats.StaleChunks++
	}
}

func (a *Array) isStale(i int, off int64) bool {
	_, ok := a.stale[i][chunkBase(off)]
	return ok
}

func (a *Array) clearStale(i int, off int64) { delete(a.stale[i], chunkBase(off)) }

// stripeOf maps a logical offset to (member, memberOffset) for data, plus
// the parity member for RAID-5.
func (a *Array) stripeOf(off int64) (member int, memberOff int64, parity int) {
	stripe := off / StripeSize
	in := off % StripeSize
	n := int64(len(a.members))
	switch a.level {
	case RAID0:
		member = int(stripe % n)
		memberOff = (stripe/n)*StripeSize + in
	case RAID1:
		member = 0
		memberOff = off
	case RAID5:
		row := stripe / (n - 1)
		parity = int(row % n) // rotating parity
		dataIdx := int(stripe % (n - 1))
		member = dataIdx
		if member >= parity {
			member++
		}
		memberOff = row*StripeSize + in
	}
	return member, memberOff, parity
}

// ReadAt implements blockdev.Device-style reads with redundancy: RAID-1
// falls over to another mirror, RAID-5 reconstructs from parity.
func (a *Array) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 || off+int64(len(p)) > a.size {
		return 0, fmt.Errorf("raid: read [%d,%d) outside array of %d", off, off+int64(len(p)), a.size)
	}
	done := 0
	for done < len(p) {
		n := chunkLen(off+int64(done), len(p)-done)
		if err := a.readChunk(p[done:done+n], off+int64(done)); err != nil {
			return done, err
		}
		done += n
	}
	return done, nil
}

func chunkLen(off int64, remain int) int {
	in := off % StripeSize
	n := StripeSize - in
	if int64(remain) < n {
		return remain
	}
	return int(n)
}

func (a *Array) readChunk(p []byte, off int64) error {
	member, memberOff, parity := a.stripeOf(off)
	switch a.level {
	case RAID0:
		if a.failed[member] {
			return fmt.Errorf("%w: member %d lost and RAID-0 has no redundancy", ErrDegraded, member)
		}
		if _, err := a.members[member].ReadAt(p, memberOff); err != nil {
			a.stats.TransientErrors++
			a.failMember(member)
			return fmt.Errorf("%w: member %d: %v", ErrDegraded, member, err)
		}
		a.memberOK(member)
		return nil
	case RAID1:
		var lastErr error
		clean := 0
		for i, m := range a.members {
			if a.failed[i] || a.isStale(i, off) {
				continue
			}
			clean++
			if _, err := m.ReadAt(p, off); err == nil {
				a.memberOK(i)
				return nil
			} else {
				a.memberError(i)
				lastErr = err
			}
		}
		if clean == 0 {
			// Every live mirror holds a stale copy: a common-mode write
			// failure left consistent pre-write data everywhere, so the
			// on-media content is the array's content.
			for i, m := range a.members {
				if a.failed[i] {
					continue
				}
				if _, err := m.ReadAt(p, off); err == nil {
					a.memberOK(i)
					a.stats.StaleAccepted++
					return nil
				} else {
					a.memberError(i)
					lastErr = err
				}
			}
		}
		return fmt.Errorf("%w: all mirrors failed: %v", ErrDegraded, lastErr)
	case RAID5:
		if !a.failed[member] && !a.isStale(member, memberOff) {
			if _, err := a.members[member].ReadAt(p, memberOff); err == nil {
				a.memberOK(member)
				return nil
			}
			a.memberError(member)
		}
		rerr := a.reconstruct(p, member, memberOff)
		if rerr == nil {
			return nil
		}
		// Reconstruction impossible; if the member itself still answers,
		// accept on-media content (consistent pre-write data after a
		// common-mode failure).
		if !a.failed[member] && a.isStale(member, memberOff) {
			if _, err := a.members[member].ReadAt(p, memberOff); err == nil {
				a.memberOK(member)
				a.stats.StaleAccepted++
				return nil
			}
			a.memberError(member)
		}
		_ = parity
		return rerr
	}
	return fmt.Errorf("%w: unsupported level", ErrBadConfig)
}

// reconstruct rebuilds a RAID-5 chunk by XORing all other members at the
// same row; every source must be live, non-stale, and readable.
func (a *Array) reconstruct(p []byte, lost int, memberOff int64) error {
	zero(p)
	buf := make([]byte, len(p))
	for i, m := range a.members {
		if i == lost {
			continue
		}
		if a.failed[i] {
			return fmt.Errorf("%w: member %d down during reconstruction", ErrDegraded, i)
		}
		if a.isStale(i, memberOff) {
			return fmt.Errorf("%w: member %d stale at row %d", ErrDegraded, i, chunkBase(memberOff))
		}
		if _, err := m.ReadAt(buf, memberOff); err != nil {
			a.memberError(i)
			return fmt.Errorf("%w: reconstruction read from member %d: %v", ErrDegraded, i, err)
		}
		a.memberOK(i)
		xorInto(p, buf)
	}
	return nil
}

// WriteAt implements redundant writes: RAID-1 writes all mirrors, RAID-5
// updates data and parity.
func (a *Array) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 || off+int64(len(p)) > a.size {
		return 0, fmt.Errorf("raid: write [%d,%d) outside array of %d", off, off+int64(len(p)), a.size)
	}
	done := 0
	for done < len(p) {
		n := chunkLen(off+int64(done), len(p)-done)
		if err := a.writeChunk(p[done:done+n], off+int64(done)); err != nil {
			return done, err
		}
		done += n
	}
	return done, nil
}

// writeLeg writes one member's share and reports success, maintaining the
// streak and stale bookkeeping.
func (a *Array) writeLeg(i int, p []byte, off int64) bool {
	if _, err := a.members[i].WriteAt(p, off); err != nil {
		a.memberError(i)
		return false
	}
	a.memberOK(i)
	a.clearStale(i, off)
	return true
}

func (a *Array) writeChunk(p []byte, off int64) error {
	member, memberOff, parity := a.stripeOf(off)
	switch a.level {
	case RAID0:
		if a.failed[member] {
			return fmt.Errorf("%w: member %d lost", ErrDegraded, member)
		}
		if _, err := a.members[member].WriteAt(p, memberOff); err != nil {
			a.stats.TransientErrors++
			a.failMember(member)
			return fmt.Errorf("%w: member %d: %v", ErrDegraded, member, err)
		}
		a.memberOK(member)
		return nil
	case RAID1:
		ok := 0
		okMask := make([]bool, len(a.members))
		var lastErr error
		for i, m := range a.members {
			if a.failed[i] {
				continue
			}
			if _, err := m.WriteAt(p, off); err != nil {
				a.memberError(i)
				lastErr = err
				continue
			}
			a.memberOK(i)
			a.clearStale(i, off)
			okMask[i] = true
			ok++
		}
		if ok == 0 {
			// No mirror diverged: all hold consistent pre-write data.
			return fmt.Errorf("%w: no mirror accepted the write: %v", ErrDegraded, lastErr)
		}
		// Mirrors that missed an acknowledged write are stale until a
		// later write lands on them.
		for i := range a.members {
			if !okMask[i] && !a.failed[i] {
				a.markStale(i, off)
			}
		}
		return nil
	case RAID5:
		return a.writeRAID5(p, member, memberOff, parity)
	}
	return fmt.Errorf("%w: unsupported level", ErrBadConfig)
}

// writeRAID5 writes the data leg and recomputes the row's parity from all
// data members (full-stripe recompute keeps parity correct even when the
// previous on-media data or parity chunk was stale). When exactly one leg
// lands, the other chunk is marked stale; when neither lands, media keeps
// consistent pre-write content and the write reports failure.
func (a *Array) writeRAID5(p []byte, member int, memberOff int64, parity int) error {
	if a.failed[member] && a.failed[parity] {
		return fmt.Errorf("%w: data and parity members both down", ErrDegraded)
	}

	dataW := false
	if !a.failed[member] {
		dataW = a.writeLeg(member, p, memberOff)
	}

	parityW := false
	if !a.failed[parity] {
		// New parity = XOR of every data chunk in the row, with the
		// target chunk at its new content.
		newParity := make([]byte, len(p))
		copy(newParity, p)
		sourcesOK := true
		for i, m := range a.members {
			if i == member || i == parity {
				continue
			}
			if a.failed[i] || a.isStale(i, memberOff) {
				sourcesOK = false
				break
			}
			buf := make([]byte, len(p))
			if _, err := m.ReadAt(buf, memberOff); err != nil {
				a.memberError(i)
				sourcesOK = false
				break
			}
			a.memberOK(i)
			xorInto(newParity, buf)
		}
		if sourcesOK {
			parityW = a.writeLeg(parity, newParity, memberOff)
		}
	}

	switch {
	case dataW && parityW:
		return nil
	case dataW && !parityW:
		// Data landed; the parity chunk no longer matches the row.
		if !a.failed[parity] {
			a.markStale(parity, memberOff)
		}
		return nil
	case !dataW && parityW:
		// Parity encodes the new data; the data chunk on media is old and
		// reads must reconstruct until a later write lands on it.
		if !a.failed[member] {
			a.markStale(member, memberOff)
		}
		return nil
	default:
		return fmt.Errorf("%w: write lost both data and parity", ErrDegraded)
	}
}

// Flush flushes every healthy member.
func (a *Array) Flush() error {
	var lastErr error
	ok := 0
	for i, m := range a.members {
		if a.failed[i] {
			continue
		}
		if err := m.Flush(); err != nil {
			a.memberError(i)
			lastErr = err
			continue
		}
		a.memberOK(i)
		ok++
	}
	if ok == 0 || !a.Healthy() {
		return fmt.Errorf("%w: flush: %v", ErrDegraded, lastErr)
	}
	return nil
}

func zero(p []byte) {
	for i := range p {
		p[i] = 0
	}
}

func xorInto(dst, src []byte) {
	for i := range dst {
		dst[i] ^= src[i]
	}
}

var _ blockdev.Device = (*Array)(nil)
