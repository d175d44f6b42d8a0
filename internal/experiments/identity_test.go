package experiments

import (
	"reflect"
	"testing"

	"secureproc/internal/sim"
)

// TestSpecKeysCoverEveryField changes each field of Spec in turn and
// requires both string identities to change with it: CanonicalKey (the
// cluster's shard key) and storeKey (the persistent store's key). A field
// added later that either format leaves out would make two specs share a
// store entry or a cluster owner while the memo tells them apart.
func TestSpecKeysCoverEveryField(t *testing.T) {
	const scale = 0.05
	base := DefaultSpec("mcf", sim.SchemeOTPLRU)
	pid, err := sim.SchemeByName("snc-lru:switch=pid")
	if err != nil {
		t.Fatal(err)
	}
	refs := []sim.SchemeRef{sim.SchemeXOM, pid} // another name; the same name with parameters
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		var variants []Spec
		switch v := reflect.ValueOf(base).Field(i); {
		case f.Type == reflect.TypeOf(sim.SchemeRef{}):
			for _, ref := range refs {
				s := base
				reflect.ValueOf(&s).Elem().Field(i).Set(reflect.ValueOf(ref))
				variants = append(variants, s)
			}
		case v.Kind() == reflect.String:
			s := base
			reflect.ValueOf(&s).Elem().Field(i).SetString(v.String() + "x")
			variants = append(variants, s)
		case v.CanInt():
			s := base
			reflect.ValueOf(&s).Elem().Field(i).SetInt(v.Int() + 1)
			variants = append(variants, s)
		case v.CanUint():
			s := base
			reflect.ValueOf(&s).Elem().Field(i).SetUint(v.Uint() + 1)
			variants = append(variants, s)
		default:
			t.Fatalf("Spec.%s has type %s, which this test cannot change: teach it how", f.Name, f.Type)
		}
		for _, s := range variants {
			if s.CanonicalKey() == base.CanonicalKey() {
				t.Errorf("changing Spec.%s leaves CanonicalKey at %q", f.Name, s.CanonicalKey())
			}
			if s.storeKey(scale) == base.storeKey(scale) {
				t.Errorf("changing Spec.%s leaves storeKey at %q", f.Name, s.storeKey(scale))
			}
		}
	}
	if base.storeKey(scale) == base.storeKey(scale*2) {
		t.Error("storeKey ignores the scale")
	}
}

// TestSpecKeyStrings pins both string identities of three specs: a default
// one, a parameterized one named by an alias, and one with non-default
// geometry. A change to either format orphans every warm -store directory
// (storeKey) or re-shards a running cluster (CanonicalKey).
func TestSpecKeyStrings(t *testing.T) {
	mac, err := sim.SchemeByName("mac: verify_lat=120 ,verify=blocking")
	if err != nil {
		t.Fatal(err)
	}
	geo := DefaultSpec("art", sim.SchemeOTPNoRepl)
	geo.SNCKB, geo.SNCWays, geo.L2KB, geo.L2Ways, geo.CryptoLat = 128, 32, 384, 6, 102
	for _, c := range []struct {
		spec                Spec
		canonical, storeKey string
	}{
		{DefaultSpec("mcf", sim.SchemeOTPLRU),
			"mcf/snc-lru/snc64KB-0w/l2-256KB-4w/c50",
			"mcf|snc-lru|snc64.0|l2_256.4|c50|x0.05"},
		{DefaultSpec("gzip", mac),
			"gzip/otp-mac:verify=blocking,verify_lat=120/snc64KB-0w/l2-256KB-4w/c50",
			"gzip|otp-mac:verify=blocking,verify_lat=120|snc64.0|l2_256.4|c50|x0.05"},
		{geo,
			"art/snc-norepl/snc128KB-32w/l2-384KB-6w/c102",
			"art|snc-norepl|snc128.32|l2_384.6|c102|x0.05"},
	} {
		if got := c.spec.CanonicalKey(); got != c.canonical {
			t.Errorf("CanonicalKey = %q, want %q", got, c.canonical)
		}
		if got := c.spec.storeKey(0.05); got != c.storeKey {
			t.Errorf("storeKey = %q, want %q", got, c.storeKey)
		}
	}
}
