package hdd

// SMARTAttribute mirrors the vendor-style health attributes an operator
// would pull from a drive under acoustic stress: the raw counters that the
// paper's dmesg evidence (§4.4) ultimately surfaces. IDs follow the
// conventional SMART numbering where one exists.
type SMARTAttribute struct {
	ID    int
	Name  string
	Value int64
	// Worst tracks the attribute's historical worst normalized value in
	// real drives; here it mirrors Value for raw counters.
	Worst int64
	// Threshold marks the vendor alarm level (0 = informational).
	Threshold int64
	// Failing reports Value past Threshold.
	Failing bool
}

// SMART returns the drive's current health attributes. The interesting
// ones under acoustic attack are the servo retry and command timeout
// counters, which inflate orders of magnitude before anything crashes —
// a forensic fingerprint of the attack distinct from normal wear.
func (d *Drive) SMART() []SMARTAttribute {
	s := d.stats
	mk := func(id int, name string, v int64, threshold int64) SMARTAttribute {
		return SMARTAttribute{
			ID: id, Name: name, Value: v, Worst: v,
			Threshold: threshold,
			Failing:   threshold > 0 && v >= threshold,
		}
	}
	totalOps := s.Reads + s.Writes
	var retryRate int64
	if totalOps > 0 {
		retryRate = s.Retries * 1000 / totalOps // retries per 1000 ops
	}
	return []SMARTAttribute{
		mk(1, "Raw_Read_Error_Rate", s.ReadErrors, 0),
		mk(9, "Power_On_Ops", totalOps, 0),
		mk(10, "Spin_Retry_Count", s.ShockParks, 10),
		mk(188, "Command_Timeout", s.ReadErrors+s.WriteErrors, 100),
		mk(191, "G-Sense_Error_Rate", s.Retries, 0),
		mk(199, "Servo_Retries_Per_1k_Ops", retryRate, 500),
		mk(241, "Total_LBAs_Written", s.BytesWritten/512, 0),
		mk(242, "Total_LBAs_Read", s.BytesRead/512, 0),
	}
}

// SMARTHealthy reports whether no attribute crosses its threshold.
func (d *Drive) SMARTHealthy() bool {
	for _, a := range d.SMART() {
		if a.Failing {
			return false
		}
	}
	return true
}
