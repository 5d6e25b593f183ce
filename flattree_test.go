package flattree_test

import (
	"slices"
	"testing"

	"flattree"
)

func TestPublicAPIRoundTrip(t *testing.T) {
	nw, err := flattree.NewNetwork(flattree.Example(), flattree.Options{N: 1, M: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m, ok := nw.Mode(); !ok || m != flattree.ModeClos {
		t.Fatalf("initial mode %v ok=%v", m, ok)
	}
	rep, err := nw.Convert(flattree.ModeGlobal)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ConvertersReconfigured == 0 || rep.Total <= 0 {
		t.Fatalf("empty conversion report: %+v", rep)
	}
	tp := nw.Topology()
	if got := len(tp.Servers()); got != 24 {
		t.Fatalf("servers = %d, want 24", got)
	}
	servers := nw.Servers()
	paths := nw.Routes().ServerPaths(servers[0], servers[12])
	if len(paths) == 0 {
		t.Fatal("no routes between servers")
	}
	if nw.MaxRulesPerSwitch() <= 0 {
		t.Fatal("no rules installed")
	}
	if nw.Clos().TotalServers() != 24 {
		t.Fatal("Clos params lost")
	}
}

func TestPublicAPIHybrid(t *testing.T) {
	nw, err := flattree.NewNetworkK(flattree.Example(), flattree.Options{N: 1, M: 1},
		map[flattree.Mode]int{flattree.ModeGlobal: 8})
	if err != nil {
		t.Fatal(err)
	}
	modes := []flattree.Mode{flattree.ModeGlobal, flattree.ModeGlobal, flattree.ModeClos, flattree.ModeLocal}
	if _, err := nw.ConvertPods(modes); err != nil {
		t.Fatal(err)
	}
	if _, uniform := nw.Mode(); uniform {
		t.Fatal("hybrid network reported uniform")
	}
	got := nw.PodModes()
	for i := range modes {
		if got[i] != modes[i] {
			t.Fatalf("pod %d mode %v, want %v", i, got[i], modes[i])
		}
	}
}

// TestConvertRejectsInvalidMode checks that a mode outside clos, local
// and global is refused with an exact error and never reaches the
// network: the pod modes and the installed topology stay as they were.
// Both calls used to set the modes and then panic while realizing them.
func TestConvertRejectsInvalidMode(t *testing.T) {
	for _, tc := range []struct {
		name    string
		convert func(*flattree.Network) error
		want    string
	}{
		{"Convert", func(nw *flattree.Network) error {
			_, err := nw.Convert(flattree.Mode(7))
			return err
		}, "core: invalid mode Mode(7) (want clos, local or global)"},
		{"ConvertPods", func(nw *flattree.Network) error {
			_, err := nw.ConvertPods([]flattree.Mode{flattree.ModeGlobal, flattree.ModeGlobal, flattree.Mode(-1), flattree.ModeClos})
			return err
		}, "core: invalid mode Mode(-1) (want clos, local or global)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nw, err := flattree.NewNetwork(flattree.Example(), flattree.Options{N: 1, M: 1})
			if err != nil {
				t.Fatal(err)
			}
			modes, fp := nw.PodModes(), nw.Topology().Fingerprint()
			if err := tc.convert(nw); err == nil || err.Error() != tc.want {
				t.Fatalf("%s error = %v, want %q", tc.name, err, tc.want)
			}
			if got := nw.PodModes(); !slices.Equal(got, modes) {
				t.Fatalf("%s left pod modes %v, want %v", tc.name, got, modes)
			}
			if got := nw.Topology().Fingerprint(); got != fp {
				t.Fatalf("%s changed the topology fingerprint %s to %s", tc.name, fp, got)
			}
		})
	}
}

// TestNewNetworkKRejectsInvalidMode pins the error for a kByMode key
// that is not a mode, which used to be ignored: the lowest bad key is
// reported, whatever the map's iteration order.
func TestNewNetworkKRejectsInvalidMode(t *testing.T) {
	for _, tc := range []struct {
		kByMode map[flattree.Mode]int
		want    string
	}{
		{map[flattree.Mode]int{flattree.Mode(7): 2},
			"control: kByMode: core: invalid mode Mode(7) (want clos, local or global)"},
		{map[flattree.Mode]int{flattree.ModeGlobal: 8, flattree.Mode(9): 2, flattree.Mode(-2): 3, flattree.Mode(5): 4},
			"control: kByMode: core: invalid mode Mode(-2) (want clos, local or global)"},
	} {
		for i := 0; i < 5; i++ {
			nw, err := flattree.NewNetworkK(flattree.Example(), flattree.Options{N: 1, M: 1}, tc.kByMode)
			if nw != nil || err == nil || err.Error() != tc.want {
				t.Fatalf("NewNetworkK(%v) = %v, %v; want error %q", tc.kByMode, nw, err, tc.want)
			}
		}
	}
}

func TestTableAndFatTreeConstructors(t *testing.T) {
	if got := len(flattree.Table2()); got != 6 {
		t.Fatalf("Table2 = %d topologies", got)
	}
	ft := flattree.FatTree(8)
	if ft.TotalServers() != 128 {
		t.Fatalf("fat-tree k=8 servers = %d", ft.TotalServers())
	}
}

// TestRoutesNilForNonServer pins the route table's answer for a node that
// is not an attached server (a switch, or an ID outside the topology):
// ServerPaths and ServerSlots return nil and ECMPServerPath reports false,
// as SwitchPaths does for a node that is not an ingress switch. A switch
// used to panic with "topo: server N has no attachment".
func TestRoutesNilForNonServer(t *testing.T) {
	nw, err := flattree.NewNetwork(flattree.Example(), flattree.Options{N: 1, M: 1})
	if err != nil {
		t.Fatal(err)
	}
	rt, servers := nw.Routes(), nw.Servers()
	sw, outside := nw.Topology().Switches()[0], len(nw.Topology().Nodes)
	for _, pr := range [][2]int{{sw, servers[0]}, {servers[0], sw}, {-1, servers[0]}, {servers[0], outside}} {
		if got := rt.ServerPaths(pr[0], pr[1]); got != nil {
			t.Errorf("ServerPaths(%d, %d) = %v, want nil", pr[0], pr[1], got)
		}
		if got := rt.ServerSlots(pr[0], pr[1]); got != nil {
			t.Errorf("ServerSlots(%d, %d) = %v, want nil", pr[0], pr[1], got)
		}
		if p, ok := rt.ECMPServerPath(pr[0], pr[1], 1); ok {
			t.Errorf("ECMPServerPath(%d, %d) = %v, true; want false", pr[0], pr[1], p)
		}
	}
	src, dst := servers[0], servers[len(servers)-1]
	if len(rt.ServerPaths(src, dst)) == 0 || len(rt.ServerSlots(src, dst)) == 0 {
		t.Fatalf("servers %d and %d have no paths", src, dst)
	}
	if _, ok := rt.ECMPServerPath(src, dst, 1); !ok {
		t.Fatalf("servers %d and %d have no ECMP path", src, dst)
	}
}
