package ml

import "fmt"

// ConfusionMatrix counts predictions per (true class, predicted class)
// pair: m[i][j] is the number of class-i examples predicted as class j.
// It supports the paper's finer-grained accuracy analysis ("the ratio of
// correct vs. wrong predictions or a prediction's closeness to a ground
// truth", §3) beyond the scalar accuracy metric.
type ConfusionMatrix [][]int

// Confusion evaluates the network over examples and returns the confusion
// matrix. It does not mutate the network.
func (n *Network) Confusion(examples []Example) (ConfusionMatrix, error) {
	if len(examples) == 0 {
		return nil, fmt.Errorf("ml: confusion over empty example set")
	}
	if err := ValidateExamples(examples, n.spec.InputDim(), n.nOut); err != nil {
		return nil, err
	}
	m := make(ConfusionMatrix, n.nOut)
	for i := range m {
		m[i] = make([]int, n.nOut)
	}
	for lo := 0; lo < len(examples); lo += n.maxBatch {
		chunk := examples[lo:min(lo+n.maxBatch, len(examples))]
		logits := n.forwardBatch(len(chunk), func(e int) []float32 { return chunk[e].X })
		for e, ex := range chunk {
			m[ex.Label][Argmax(logits[e*n.nOut:(e+1)*n.nOut])]++
		}
	}
	return m, nil
}

// Accuracy returns the fraction of diagonal mass.
func (m ConfusionMatrix) Accuracy() float64 {
	total, correct := 0, 0
	for i, row := range m {
		for j, c := range row {
			total += c
			if i == j {
				correct += c
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

// PerClassRecall returns each class's recall (diagonal over row sum);
// classes with no examples report 0.
func (m ConfusionMatrix) PerClassRecall() []float64 {
	out := make([]float64, len(m))
	for i, row := range m {
		total := 0
		for _, c := range row {
			total += c
		}
		if total > 0 {
			out[i] = float64(row[i]) / float64(total)
		}
	}
	return out
}

// CoveredClasses counts classes with nonzero recall — a quick view of how
// many classes a (possibly drift-collapsed) model still recognizes.
func (m ConfusionMatrix) CoveredClasses() int {
	covered := 0
	for _, r := range m.PerClassRecall() {
		if r > 0 {
			covered++
		}
	}
	return covered
}
