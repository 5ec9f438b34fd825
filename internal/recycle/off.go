//go:build norecycle

package recycle

import (
	"reflect"
	"unsafe"
)

// off turns reuse off: this build has the tag norecycle.
const off = true

// poison overwrites what pointer x points to, or every element of slice x
// up to its capacity: signed integers with their minimum, so that a due
// time or a slot reads as nothing valid, everything else with zero.
func poison(x any) {
	if v := reflect.ValueOf(x); v.Kind() == reflect.Pointer {
		overwrite(v.Elem())
	} else {
		s := v.Slice(0, v.Cap())
		for i := range s.Len() {
			overwrite(s.Index(i))
		}
	}
}

func overwrite(v reflect.Value) {
	v = reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem() // settable, unexported or not
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(-1 << (v.Type().Bits() - 1))
	case reflect.Struct:
		for i := range v.NumField() {
			overwrite(v.Field(i))
		}
	default:
		v.SetZero()
	}
}
