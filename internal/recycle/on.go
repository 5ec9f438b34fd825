//go:build !norecycle

package recycle

// off is true only under the build tag norecycle (off.go).
const off = false

func poison(any) {}
