package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"time"
)

// csvSpec shapes a generated training CSV: Numeric feature columns, one
// protected group column and a boolean label, with a DirtyRate share of
// rows corrupted.
type csvSpec struct {
	Rows      int
	Numeric   int
	DirtyRate float64
}

// defectKinds names the corruptions a dirty row may carry: the palette
// of cmd/datagen -dirty-rate. Every kind fails ingest validation, so the
// generator knows the exact good and bad row counts ingest must report.
var defectKinds = [...]string{"short_row", "long_row", "garbage_cell", "nan_cell", "inf_cell", "bad_label"}

// csvCounts is what the generator knows about the bytes it wrote.
type csvCounts struct {
	Good, Bad int
	Kinds     [len(defectKinds)]int
}

// writeCSV writes a seeded CSV to w. Clean rows draw the group with
// probability 0.3, shift every feature by ±0.8 with the group so the
// protected attribute is informative, and derive the label from a
// logistic score. Defect positions and kinds come from their own stream,
// so a seed fixes both the values and the defects.
func writeCSV(w io.Writer, seed int64, spec csvSpec) (csvCounts, error) {
	var c csvCounts
	vals := rand.New(rand.NewSource(seed))
	dirt := rand.New(rand.NewSource(seed ^ 0x64697274))
	bw := bufio.NewWriterSize(w, 1<<16)

	labelCol := spec.Numeric + 1
	row := make([]string, 0, labelCol+2)
	for j := 0; j < spec.Numeric; j++ {
		row = append(row, "f"+strconv.Itoa(j))
	}
	row = append(row, "group", "label")
	writeRow(bw, row)

	for i := 0; i < spec.Rows; i++ {
		row = row[:0]
		group := vals.Float64() < 0.3
		score := 0.0
		for j := 0; j < spec.Numeric; j++ {
			v := vals.NormFloat64()
			if group {
				v += 0.8 * float64(1-2*(j%2))
			}
			score += v / float64(j+1)
			row = append(row, strconv.FormatFloat(v, 'g', 8, 64))
		}
		label := vals.Float64() < 1/(1+math.Exp(-score))
		row = append(row, strconv.FormatBool(group), strconv.FormatBool(label))
		if dirt.Float64() < spec.DirtyRate {
			kind := dirt.Intn(len(defectKinds))
			c.Kinds[kind]++
			c.Bad++
			switch kind {
			case 0:
				row = row[:len(row)-1]
			case 1:
				row = append(row, "extra")
			case 2:
				row[dirt.Intn(spec.Numeric)] = "garbage"
			case 3:
				row[dirt.Intn(spec.Numeric)] = "NaN"
			case 4:
				row[dirt.Intn(spec.Numeric)] = "+Inf"
			case 5:
				row[labelCol] = "maybe"
			}
		} else {
			c.Good++
		}
		writeRow(bw, row)
	}
	if err := bw.Flush(); err != nil {
		return c, fmt.Errorf("write csv: %w", err)
	}
	return c, nil
}

// writeRow writes one CSV record; generated cells never need quoting.
func writeRow(w *bufio.Writer, cells []string) {
	for j, cell := range cells {
		if j > 0 {
			w.WriteByte(',')
		}
		w.WriteString(cell)
	}
	w.WriteByte('\n')
}

// genRows draws n request rows of dims standard-normal values.
func genRows(rng *rand.Rand, n, dims int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		row := make([]float64, dims)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		rows[i] = row
	}
	return rows
}

// poissonSchedule returns the due offsets of an open-loop Poisson
// arrival process at rate per second over d.
func poissonSchedule(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var due []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return due
		}
		due = append(due, at)
	}
}
