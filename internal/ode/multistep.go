package ode

// PABIntegrator integrates an ODE system with the Parallel
// Adams-Bashforth method (PAB, Corrector == 0) or the Parallel
// Adams-Bashforth-Moulton method (PABM, Corrector == m > 0). One time step
// computes K stage values at the abscissas t_n + c_i h; the K stages are
// independent of each other within a step (they only read the previous
// step's stage derivatives), which is the coarse-grained task parallelism
// the paper exploits. PABM additionally applies m corrector iterations per
// stage, each using only the stage's own new derivative, so the stages
// remain independent.
type PABIntegrator struct {
	Coeffs    *AdamsCoeffs
	Corrector int // m: corrector iterations (0 = PAB)

	sys System
	t   float64
	h   float64
	yn  []float64   // solution at current time t (stage K-1 of last step)
	f   [][]float64 // stage derivatives F_i of the last step
}

// NewPABIntegrator bootstraps the multistep method at (t0, y0): the K
// initial stage values at t0 + c_i*h are produced by fine RK4 integration,
// after which the integrator sits at time t0 + h.
func NewPABIntegrator(k, corrector int, sys System, t0 float64, y0 []float64, h float64) *PABIntegrator {
	p := &PABIntegrator{
		Coeffs:    NewAdams(k),
		Corrector: corrector,
		sys:       sys,
		h:         h,
	}
	n := sys.Dim()
	const boot = 16 // RK4 substeps per stage interval
	p.f = make([][]float64, k)
	cur := append([]float64(nil), y0...)
	prevC := 0.0
	for i := 0; i < k; i++ {
		ci := p.Coeffs.C[i]
		dt := (ci - prevC) * h
		cur = RK4(sys, t0+prevC*h, cur, dt/boot, boot)
		prevC = ci
		fi := make([]float64, n)
		sys.Eval(t0+ci*h, cur, 0, n, fi)
		p.f[i] = fi
		if i == k-1 {
			p.yn = append([]float64(nil), cur...)
		}
	}
	p.t = t0 + h
	return p
}

// T returns the current time.
func (p *PABIntegrator) T() float64 { return p.t }

// Y returns the current solution (do not modify).
func (p *PABIntegrator) Y() []float64 { return p.yn }

// Step advances the integrator by one step of size h and returns an error
// estimate (the corrector-predictor difference for PABM, the difference of
// the last two stages' predictions for PAB).
func (p *PABIntegrator) Step() float64 {
	k := p.Coeffs.K
	n := p.sys.Dim()
	newY := make([][]float64, k)
	newF := make([][]float64, k)
	var errEst float64

	for i := 0; i < k; i++ {
		// Predictor (Adams-Bashforth over the old stage derivatives).
		yi := make([]float64, n)
		for c := 0; c < n; c++ {
			sum := 0.0
			for j := 0; j < k; j++ {
				sum += p.Coeffs.Beta[i][j] * p.f[j][c]
			}
			yi[c] = p.yn[c] + p.h*sum
		}
		ti := p.t + p.Coeffs.C[i]*p.h
		fi := make([]float64, n)
		p.sys.Eval(ti, yi, 0, n, fi)

		// Corrector iterations (Adams-Moulton including the stage's
		// own derivative).
		var pred []float64
		if p.Corrector > 0 {
			pred = append([]float64(nil), yi...)
			for it := 0; it < p.Corrector; it++ {
				for c := 0; c < n; c++ {
					sum := p.Coeffs.Nu[i] * fi[c]
					for j := 0; j < k; j++ {
						sum += p.Coeffs.Mu[i][j] * p.f[j][c]
					}
					yi[c] = p.yn[c] + p.h*sum
				}
				p.sys.Eval(ti, yi, 0, n, fi)
			}
			if d := MaxAbsDiff(yi, pred); d > errEst {
				errEst = d
			}
		}
		newY[i] = yi
		newF[i] = fi
	}
	p.yn = newY[k-1] // c_{K-1} = 1: the last stage carries the solution
	p.f = newF
	p.t += p.h
	return errEst
}

// Integrate advances the integrator by the given number of steps.
func (p *PABIntegrator) Integrate(steps int) {
	for s := 0; s < steps; s++ {
		p.Step()
	}
}
