package osmodel

import (
	"strings"
	"testing"
	"time"

	"deepnote/internal/hdd"
)

func startServices(t *testing.T, r *rig) {
	t.Helper()
	if err := r.srv.StartServices(StandardServices()); err != nil {
		t.Fatal(err)
	}
}

func TestServicesRunHealthy(t *testing.T) {
	r := newRig(t, Config{})
	startServices(t, r)
	if got := r.srv.RunningServices(); got != 3 {
		t.Fatalf("running = %d, want 3", got)
	}
	for i := 0; i < 40; i++ {
		r.clock.Sleep(500 * time.Millisecond)
		r.srv.Step()
	}
	if got := r.srv.RunningServices(); got != 3 {
		t.Fatalf("running after workload = %d, want 3", got)
	}
	svc, ok := r.srv.ServiceByName("httpd")
	if !ok {
		t.Fatal("httpd missing")
	}
	if svc.Restarts != 0 || svc.logSeq == 0 {
		t.Fatalf("httpd state: %+v", svc)
	}
	dmesg := strings.Join(r.srv.Dmesg(), "\n")
	if !strings.Contains(dmesg, "Started httpd.service") {
		t.Fatal("service start not logged")
	}
}

func TestServicesFailPermanentlyUnderSustainedAttack(t *testing.T) {
	r := newRig(t, Config{CrashThreshold: time.Hour}) // isolate service behaviour
	startServices(t, r)
	r.disk.Drive().SetVibration(hdd.Vibration{Freq: 650, Amplitude: 2.3})
	for i := 0; i < 120; i++ {
		r.clock.Sleep(time.Second)
		r.srv.Step()
	}
	if got := r.srv.RunningServices(); got != 0 {
		t.Fatalf("running under sustained attack = %d, want 0", got)
	}
	failed := 0
	for _, svc := range r.srv.Services() {
		if svc.State == ServiceFailed {
			failed++
		}
	}
	if failed != 3 {
		t.Fatalf("failed services = %d, want 3", failed)
	}
	dmesg := strings.Join(r.srv.Dmesg(), "\n")
	if !strings.Contains(dmesg, "scheduling restart") {
		t.Fatal("restarts not logged")
	}
	if !strings.Contains(dmesg, "refusing") {
		t.Fatal("start-limit refusal not logged")
	}
}

func TestServicesRecoverFromShortBurst(t *testing.T) {
	r := newRig(t, Config{CrashThreshold: time.Hour})
	startServices(t, r)
	r.disk.Drive().SetVibration(hdd.Vibration{Freq: 650, Amplitude: 2.3})
	for i := 0; i < 3; i++ {
		r.clock.Sleep(time.Second)
		r.srv.Step()
	}
	r.disk.Drive().SetVibration(hdd.Quiet())
	for i := 0; i < 20; i++ {
		r.clock.Sleep(time.Second)
		r.srv.Step()
	}
	if got := r.srv.RunningServices(); got != 3 {
		states := make([]string, 0, 3)
		for _, svc := range r.srv.Services() {
			states = append(states, svc.Spec.Name+"="+svc.State.String())
		}
		t.Fatalf("running after recovery = %d (%v), want 3", got, states)
	}
}

func TestStartServicesRequiresBoot(t *testing.T) {
	var s Server
	if err := s.StartServices(StandardServices()); err != ErrNotBooted {
		t.Fatalf("got %v", err)
	}
}

func TestServiceStateStrings(t *testing.T) {
	if ServiceRunning.String() != "running" || ServiceFailed.String() != "failed" ||
		ServiceRestarting.String() != "restarting" || ServiceState(9).String() == "" {
		t.Fatal("state names")
	}
}
