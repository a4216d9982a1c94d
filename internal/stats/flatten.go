package stats

import (
	"fmt"
	"reflect"
	"sync/atomic"
)

var counterType = reflect.TypeOf(atomic.Uint64{})

// Flatten returns every counter reachable from v, a pointer to a struct,
// keyed by its `metric` tag: each exported atomic.Uint64 field, and those
// of exported struct fields and non-nil struct pointers, recursively. Each
// value is read with the counter's own Load, so Flatten may run while the
// counters are being incremented. It panics on an untagged counter or a
// name used twice, so a snapshot can never drop or merge a counter.
func Flatten(v any) map[string]uint64 {
	out := make(map[string]uint64)
	flatten(out, reflect.ValueOf(v).Elem())
	return out
}

func flatten(out map[string]uint64, v reflect.Value) {
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f, fv := t.Field(i), v.Field(i)
		switch {
		case !f.IsExported(): // internal state, never reported
		case f.Type == counterType:
			name := f.Tag.Get("metric")
			if _, dup := out[name]; dup || name == "" {
				panic(fmt.Sprintf("stats: counter %s.%s has metric name %q, untagged or already used", t, f.Name, name))
			}
			out[name] = fv.Addr().Interface().(*atomic.Uint64).Load()
		case f.Type.Kind() == reflect.Struct:
			flatten(out, fv)
		case f.Type.Kind() == reflect.Pointer && f.Type.Elem().Kind() == reflect.Struct && !fv.IsNil():
			flatten(out, fv.Elem())
		}
	}
}
