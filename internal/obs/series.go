package obs

import (
	"fmt"
	"reflect"
	"strings"
	"time"
)

// Series is the export table of one stats struct type, built from its
// field tags:
//
//	Inserts   int64 `metric:"tiger_cub_inserts_total" help:"Slot insertions."`
//	ViewSize  int   `metric:"tiger_cub_view_entries,gauge" help:"..."`
//
// A field without a metric tag is not exported; struct-valued fields are
// walked. Integer and float fields export their value, a bool 0 or 1,
// and a time.Duration its length in seconds.
type Series []seriesField

type seriesField struct {
	Desc
	index []int
}

// SeriesOf builds the table for v's struct type. Call it once, at
// package initialisation; it panics on a tagged field it cannot export.
func SeriesOf(v any) Series {
	var t Series
	t.walk(reflect.TypeOf(v), nil)
	return t
}

func (t *Series) walk(typ reflect.Type, prefix []int) {
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		index := append(prefix[:len(prefix):len(prefix)], i)
		if f.Type.Kind() == reflect.Struct {
			t.walk(f.Type, index)
			continue
		}
		tag, ok := f.Tag.Lookup("metric")
		if !ok {
			continue
		}
		number(reflect.Zero(f.Type)) // panics now rather than at the first scrape
		name, opt, _ := strings.Cut(tag, ",")
		*t = append(*t, seriesField{Desc{Name: name, Help: f.Tag.Get("help"), Gauge: opt == "gauge"}, index})
	}
}

// Collect emits one sample per tagged field of v, a struct (or pointer
// to one) of the type the table was built from.
func (t Series) Collect(emit Emit, labels string, v any) {
	rv := reflect.Indirect(reflect.ValueOf(v))
	for i := range t {
		emit(&t[i].Desc, labels, number(rv.FieldByIndex(t[i].index)))
	}
}

var durationType = reflect.TypeOf(time.Duration(0))

func number(f reflect.Value) float64 {
	switch {
	case f.Type() == durationType:
		return time.Duration(f.Int()).Seconds()
	case f.CanInt():
		return float64(f.Int())
	case f.CanUint():
		return float64(f.Uint())
	case f.CanFloat():
		return f.Float()
	case f.Kind() == reflect.Bool:
		if f.Bool() {
			return 1
		}
		return 0
	}
	panic(fmt.Sprintf("obs: cannot export a %v as a metric", f.Type()))
}
