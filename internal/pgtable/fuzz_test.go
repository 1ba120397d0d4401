package pgtable

import "testing"

// permsFromBits expands the low six bits of b into a Perms value.
func permsFromBits(b byte) Perms {
	return Perms{
		Present:  b&1 != 0,
		Write:    b&2 != 0,
		User:     b&4 != 0,
		NoExec:   b&8 != 0,
		Accessed: b&16 != 0,
		Dirty:    b&32 != 0,
	}
}

// commonPFNBits is the PFN width both formats can address: the arm
// descriptor's output-address field spans bits 12..47, so 36 bits of frame
// number is the cross-ISA common range (the x86 field is wider).
const commonPFNBits = 36

// FuzzPTEConvert checks DESIGN invariant 4: converting a leaf entry
// between the x86 PTE and arm descriptor formats preserves the PFN and
// every permission bit, in both directions, and converting back yields the
// original encoding bit-for-bit.
func FuzzPTEConvert(f *testing.F) {
	f.Add(uint64(0), byte(0))
	f.Add(uint64(1), byte(1))              // minimal present page
	f.Add(uint64(0x1234), byte(0x3F))      // everything set
	f.Add(uint64(0xFFFFFFFFF), byte(0x03)) // max common PFN, writable
	f.Add(uint64(0xABCDE), byte(0x09))     // present + noexec
	f.Add(uint64(0xDEAD), byte(0x36))      // non-present with attr bits
	f.Fuzz(func(t *testing.T, pfn uint64, bits byte) {
		pfn &= (1 << commonPFNBits) - 1
		p := permsFromBits(bits)
		formats := []Format{X86Format{}, Arm64Format{}}
		for _, src := range formats {
			for _, dst := range formats {
				e := src.EncodeLeaf(pfn, p)
				ce, ok := ConvertLeaf(dst, src, e)
				if !p.Present {
					if ok {
						t.Fatalf("%s->%s: converted a non-present entry %#x", src.Name(), dst.Name(), e)
					}
					continue
				}
				if !ok {
					t.Fatalf("%s->%s: present entry %#x failed to convert", src.Name(), dst.Name(), e)
				}
				gpfn, gp, gok := dst.DecodeLeaf(ce)
				if !gok {
					t.Fatalf("%s->%s: converted entry %#x decodes as non-present", src.Name(), dst.Name(), ce)
				}
				if gpfn != pfn {
					t.Errorf("%s->%s: PFN %#x became %#x", src.Name(), dst.Name(), pfn, gpfn)
				}
				if gp != p {
					t.Errorf("%s->%s: perms %+v became %+v", src.Name(), dst.Name(), p, gp)
				}
				// Converting back must reproduce the original encoding
				// exactly (both encoders are canonical).
				back, ok2 := ConvertLeaf(src, dst, ce)
				if !ok2 || back != e {
					t.Errorf("%s->%s->%s: entry %#x roundtripped to %#x (ok=%v)",
						src.Name(), dst.Name(), src.Name(), e, back, ok2)
				}
			}
		}
	})
}
