package nn

import (
	"math"
	"math/rand"
	"os"
	"os/exec"
	"strings"
	"testing"

	"rafiki/internal/cpu"
)

// TestKernelsUseAVX fails when CPUID and XCR0 report AVX2 and FMA but
// inference runs the portable block, so a benchmark cannot silently
// measure the fallback. It reads the CPUID bits itself rather than
// trusting cpu.AVX2FMA. A process started with GODEBUG=cpu.fma=off must
// instead select the portable path, as its math.Exp is not fused: the
// test reruns itself that way to check.
func TestKernelsUseAVX(t *testing.T) {
	fmaOff := strings.Contains(os.Getenv("GODEBUG"), "cpu.fma=off")
	if fmaOff {
		if haveKernel || useKernel {
			t.Fatal("GODEBUG=cpu.fma=off: the kernel passed its self-check against a plain math.Exp")
		}
		return
	}
	maxLeaf, _, _, _ := cpu.CPUID(0, 0)
	_, _, ecx, _ := cpu.CPUID(1, 0)
	_, ebx, _, _ := cpu.CPUID(7, 0)
	const fma, osxsave, avx, avx2 = 1 << 12, 1 << 27, 1 << 28, 1 << 5
	if maxLeaf < 7 || ecx&(fma|osxsave|avx) != fma|osxsave|avx || ebx&avx2 == 0 {
		t.Skip("CPUID reports no AVX2 or FMA (or no OSXSAVE)")
	}
	if xcr0, _ := cpu.XGETBV(); xcr0&6 != 6 {
		t.Skip("the OS does not save the YMM state")
	}
	if !haveKernel || !useKernel {
		t.Fatalf("an AVX2/FMA host runs the portable block (haveKernel=%v useKernel=%v)", haveKernel, useKernel)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestKernelsUseAVX$", "-test.count=1", "-test.v")
	cmd.Env = append(os.Environ(), "GODEBUG=cpu.fma=off")
	if out, err := cmd.CombinedOutput(); err != nil || !strings.Contains(string(out), "--- PASS: TestKernelsUseAVX") {
		t.Fatalf("rerun with GODEBUG=cpu.fma=off: %v\n%s", err, out)
	}
}

// plainTanh is math.Tanh as it computes where math.Exp does not take its
// FMA path: math.archExp's plain SSE2 sequence, every product rounded.
// It differs from the FMA path in the last bit on about one input in a
// thousand in [0.625, 44], so the kernel's self-check must reject it.
func plainTanh(x float64) float64 {
	z := math.Abs(x)
	if z > halfMaxLog || z < 0.625 {
		return math.Tanh(x)
	}
	const (
		log2e = 1.4426950408889634073599246810018920
		ln2U  = 0.69314718055966295651160180568695068359375
		ln2L  = 0.28235290563031577122588448175013436025525412068e-12
	)
	a := 2 * z
	n := math.RoundToEven(float64(log2e * a))
	a = a - float64(n*ln2U)
	a = a - float64(n*ln2L)
	a *= 0.0625
	p := 2.4801587301587301587e-5
	for _, c := range [...]float64{1.9841269841269841270e-4, 1.3888888888888888889e-3, 8.3333333333333333333e-3,
		4.1666666666666666667e-2, 1.6666666666666666667e-1, 0.5, 1} {
		p = float64(p*a) + c
	}
	a *= p
	for range 4 {
		a *= a + 2
	}
	s := (a + 1) * math.Ldexp(1, int(n))
	t := 1 - 2/(s+1)
	if x < 0 {
		t = -t
	}
	return t
}

// tanhInputs is the bit-exactness sweep: the self-check's probes, a
// thousand consecutive doubles on each side of both branch bounds, the
// smallest subnormals and other edges, 400 000 random bit patterns (NaNs of every
// payload, infinities, subnormals among them), and 3.6 M doubles spread
// uniformly over [-50, 50] and log-uniformly over 1e-300..1e3.
func tanhInputs() []float64 {
	xs := append([]float64(nil), tanhProbes[:]...)
	for _, edge := range []float64{0.625, halfMaxLog} {
		lo, hi := edge, edge
		for range 1000 {
			lo, hi = math.Nextafter(lo, 0), math.Nextafter(hi, math.Inf(1))
			xs = append(xs, lo, -lo, hi, -hi)
		}
		xs = append(xs, edge, -edge)
	}
	// 0.8457320109763538 is the one input of 60 M random ones in [0.625,
	// 44] where rounding the product of exp's Taylor step that adds 0.5
	// (not fusing it) changes the result; its earlier steps' products
	// are too small ever to matter.
	xs = append(xs, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022, math.MaxFloat64, -math.MaxFloat64,
		0.8457320109763538)
	rng := rand.New(rand.NewSource(42))
	for range 400_000 {
		xs = append(xs, math.Float64frombits(rng.Uint64()))
	}
	for range 1_800_000 {
		xs = append(xs, 100*rng.Float64()-50)
		v := math.Pow(10, 303*rng.Float64()-300)
		if rng.Intn(2) == 0 {
			v = -v
		}
		xs = append(xs, v)
	}
	return xs[:len(xs)&^3]
}

// TestTanhBitIdentical holds the kernel's tanh to math.Tanh over ≥ 4 M
// inputs, and checks that the sweep reaches inputs where math.Exp's FMA
// and plain paths round apart, so that it would tell them apart.
func TestTanhBitIdentical(t *testing.T) {
	if !haveKernel {
		t.Skip("no AVX2/FMA kernel in this process")
	}
	xs := tanhInputs()
	got := append([]float64(nil), xs...)
	tanhBlocks(got)
	apart := 0
	for i, x := range xs {
		want := math.Tanh(x)
		if math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("tanh(%v) [%#x] = %v [%#x], math.Tanh %v [%#x]", x, math.Float64bits(x), got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
		}
		if math.Float64bits(plainTanh(x)) != math.Float64bits(want) {
			apart++
		}
	}
	if len(xs) < 4_000_000 || apart < 100 {
		t.Fatalf("swept %d inputs, %d where exp's FMA and plain paths differ", len(xs), apart)
	}
	t.Logf("%d inputs, %d where exp's FMA and plain paths differ", len(xs), apart)
}

// TestKernelSelfCheckRejects shows that the init self-check refuses a
// kernel whose tanh differs from the reference: against the plain-exp
// tanh of a process without FMA, or a reference off by one ulp at a
// single probe, it reports a mismatch, so such a process runs the
// portable block.
func TestKernelSelfCheckRejects(t *testing.T) {
	if !haveKernel {
		t.Skip("no AVX2/FMA kernel in this process")
	}
	if !selectKernel(math.Tanh) {
		t.Fatal("the self-check rejects math.Tanh itself")
	}
	if selectKernel(plainTanh) {
		t.Error("the self-check accepts a tanh whose exp is not fused: its probes miss every input where the paths differ")
	}
	offByOne := func(x float64) float64 {
		if x == 0.3 {
			return math.Nextafter(math.Tanh(x), 1)
		}
		return math.Tanh(x)
	}
	if selectKernel(offByOne) {
		t.Error("the self-check accepts a reference one ulp off at a probe")
	}
}
