package ga

import (
	"math"
	"testing"
)

func TestAnnealFindsSphereOptimum(t *testing.T) {
	res, err := Anneal(sphereProblem(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestFitness < 98 {
		t.Errorf("best fitness %v, want >= 98", res.BestFitness)
	}
	want := []float64{1, 2, 3}
	for i, v := range res.Best {
		if math.Abs(v-want[i]) > 1 {
			t.Errorf("gene %d = %v, want ~%v", i, v, want[i])
		}
	}
}

func TestAnnealRespectsConstraints(t *testing.T) {
	p := Problem{
		Bounds: []Bound{{Min: 0, Max: 10, Integer: true}},
		Fitness: func(x []float64) (float64, error) {
			return -(x[0] - 6.3) * (x[0] - 6.3), nil
		},
	}
	res, err := Anneal(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best[0] != 6 {
		t.Errorf("integer optimum = %v, want 6", res.Best[0])
	}
}

func TestAnnealValidation(t *testing.T) {
	valid := sphereProblem(2)
	tests := []struct {
		name string
		p    Problem
	}{
		{"no bounds", Problem{Fitness: valid.Fitness}},
		{"nil fitness", Problem{Bounds: valid.Bounds}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Anneal(tt.p, 0); err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestAnnealDeterminism(t *testing.T) {
	a, err := Anneal(sphereProblem(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Anneal(sphereProblem(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.BestFitness != b.BestFitness {
		t.Errorf("same seed diverged: %v vs %v", a.BestFitness, b.BestFitness)
	}
}

func TestAnnealEvaluationBudget(t *testing.T) {
	res, err := Anneal(sphereProblem(4), 0)
	if err != nil {
		t.Fatal(err)
	}
	// The starting point, then one evaluation per proposal.
	if want := annealSteps + 1; res.Evaluations != want {
		t.Errorf("evaluations %d, want %d", res.Evaluations, want)
	}
}
