// Scheme registry: protection schemes are described by Descriptors and
// constructed by name from one fixed table, builtin.go's schemes: the four
// paper schemes and the two integrity/precompute extensions.

package core

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"secureproc/internal/crypto/engine"
	"secureproc/internal/mem"
	"secureproc/internal/snc"
)

// Params is a read-only view of a Ref's construction parameters (e.g.
// "verify" -> "blocking") in their canonical "k=v,k=v" form: sorted by key,
// one value per key. Reading a parameter allocates nothing.
type Params struct{ s string }

// Get returns the value of key and whether the parameters carry it.
func (p Params) Get(key string) (string, bool) {
	for rest := p.s; rest != ""; {
		var k, v string
		k, v, rest = nextParam(rest)
		if k == key {
			return v, true
		}
	}
	return "", false
}

// Int reads an integer parameter, falling back to def when absent.
func (p Params) Int(key string, def int) (int, error) {
	v, ok := p.Get(key)
	if !ok {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("core: parameter %s=%q is not an integer", key, v)
	}
	return n, nil
}

// Str reads a string parameter, falling back to def when absent.
func (p Params) Str(key, def string) string {
	if v, ok := p.Get(key); ok {
		return v
	}
	return def
}

// nextParam splits the first "k=v" pair off a canonical parameter string.
func nextParam(s string) (k, v, rest string) {
	kv, rest, _ := strings.Cut(s, ",")
	k, v, _ = strings.Cut(kv, "=")
	return k, v, rest
}

// Ref names a registered scheme plus its construction parameters. It is a
// comparable value: only ParseRef sets the parameters, in canonical form, so
// two Refs are equal exactly when their canonical forms are. The zero Ref is
// invalid (no scheme selected); build one from a descriptor name or via
// ParseRef.
type Ref struct {
	// Name is the registry name ("baseline", "snc-lru", "otp-mac", ...).
	Name string
	// params is the canonical parameter string; "" for defaults.
	params string
}

// Params returns the parameters that tune the scheme's constructor.
func (r Ref) Params() Params { return Params{r.params} }

// Canonical renders the Ref as "name" or "name:k=v,k=v" (params sorted) —
// a stable identity accepted back by ParseRef.
func (r Ref) Canonical() string {
	if r.params == "" {
		return r.Name
	}
	return r.Name + ":" + r.params
}

// String implements fmt.Stringer as the canonical form.
func (r Ref) String() string { return r.Canonical() }

// ParseRef parses "name" or "name:k=v,k=v" into a Ref, sorting the
// parameters by key; a repeated key keeps its last value. It does not
// consult the registry; pair it with Lookup to validate the name.
func ParseRef(s string) (Ref, error) {
	name, rest, _ := strings.Cut(s, ":")
	name = strings.TrimSpace(name)
	if name == "" {
		return Ref{}, fmt.Errorf("core: empty scheme reference")
	}
	type param struct{ k, v string }
	var ps []param
	for _, kv := range strings.Split(rest, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		k = strings.TrimSpace(k)
		if !ok || k == "" {
			return Ref{}, fmt.Errorf("core: malformed scheme parameter %q (want k=v)", kv)
		}
		ps = slices.DeleteFunc(ps, func(p param) bool { return p.k == k })
		ps = append(ps, param{k, strings.TrimSpace(v)})
	}
	slices.SortFunc(ps, func(a, b param) int { return strings.Compare(a.k, b.k) })
	var b strings.Builder
	for i, p := range ps {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteByte('=')
		b.WriteString(p.v)
	}
	return Ref{Name: name, params: b.String()}, nil
}

// Resources bundles the shared machine components a scheme constructor may
// wire into: the memory bus, the write buffer, the crypto engine, the SNC
// configuration (the scheme decides whether to instantiate an SNC) and the
// L2 line size.
type Resources struct {
	Bus    *mem.Bus
	WBuf   *mem.WriteBuffer
	Crypto *engine.Engine
	// SNC is the sequence-number-cache configuration from the system
	// config; schemes that use an SNC call snc.New on (a copy of) it.
	SNC snc.Config
	// LineBytes is the L2 line size the scheme protects.
	LineBytes int
}

// Descriptor describes one protection scheme in the table.
type Descriptor struct {
	// Name is the canonical registry name (lower-case, hyphenated).
	Name string
	// Doc is a one-line description printed by CLI listings.
	Doc string
	// Aliases are alternative lookup names ("lru" for "snc-lru").
	Aliases []string
	// NeedsSNC marks schemes whose configuration validation must include
	// the SNC (size, line-size match with L2).
	NeedsSNC bool
	// CheckParams validates construction parameters without building the
	// scheme. A nil CheckParams means the scheme accepts no parameters.
	CheckParams func(Params) error
	// New constructs the scheme over the shared resources.
	New func(Resources, Params) (Scheme, error)
}

// checkParams applies CheckParams, defaulting to "no parameters accepted".
func (d Descriptor) checkParams(p Params) error {
	if d.CheckParams != nil {
		return d.CheckParams(p)
	}
	if p.s != "" {
		return fmt.Errorf("core: scheme %q accepts no parameters (got %s)", d.Name, p.s)
	}
	return nil
}

// Lookup resolves a scheme name or alias (case-insensitive) to its
// descriptor. The error for an unknown name lists the registry contents.
func Lookup(name string) (Descriptor, error) {
	key := strings.ToLower(strings.TrimSpace(name))
	for _, d := range schemes {
		if strings.ToLower(d.Name) == key {
			return d, nil
		}
		for _, a := range d.Aliases {
			if strings.ToLower(a) == key {
				return d, nil
			}
		}
	}
	return Descriptor{}, fmt.Errorf("core: unknown scheme %q (registered: %s)",
		name, strings.Join(Names(), ", "))
}

// LookupRef resolves and validates a full scheme reference: the name must
// be registered and the parameters must pass the descriptor's checks.
func LookupRef(r Ref) (Descriptor, error) {
	if r.Name == "" {
		return Descriptor{}, fmt.Errorf("core: no scheme selected (registered: %s)",
			strings.Join(Names(), ", "))
	}
	d, err := Lookup(r.Name)
	if err != nil {
		return Descriptor{}, err
	}
	if err := d.checkParams(r.Params()); err != nil {
		return Descriptor{}, err
	}
	return d, nil
}

// Build constructs the scheme a Ref describes over the given resources.
func Build(r Ref, res Resources) (Scheme, error) {
	d, err := LookupRef(r)
	if err != nil {
		return nil, err
	}
	return d.New(res, r.Params())
}

// Names lists the canonical scheme names in table order.
func Names() []string {
	out := make([]string, len(schemes))
	for i, d := range schemes {
		out[i] = d.Name
	}
	return out
}

// Descriptors lists the scheme descriptors in table order.
func Descriptors() []Descriptor {
	return append([]Descriptor(nil), schemes...)
}
