// Package plot renders simple line/scatter charts as standalone SVG
// documents using only the standard library, so the reproduction can
// emit graphical versions of the paper's figures (`pcs figures`).
// It supports linear and log10 y-axes, multiple named series, axis
// ticks, a legend, and nothing else — exactly enough for Figs. 2–4.
package plot

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Series is one named polyline.
type Series struct {
	Name   string
	X, Y   []float64
	Dashed bool
}

// Chart is a 2-D line chart.
type Chart struct {
	Title  string
	XLabel string
	YLabel string
	// LogY selects a log10 y-axis (BER, yield tails).
	LogY   bool
	Series []Series

	// W and H are the canvas size in pixels (defaults 640x420).
	W, H int
}

// palette holds distinguishable series colours.
var palette = []string{
	"#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf",
}

const (
	marginL = 70
	marginR = 20
	marginT = 40
	marginB = 55
)

// Add appends a series.
func (c *Chart) Add(name string, x, y []float64) {
	c.Series = append(c.Series, Series{Name: name, X: x, Y: y})
}

// bounds returns the data extents, applying the log transform when set.
func (c *Chart) bounds() (xmin, xmax, ymin, ymax float64, err error) {
	xmin, ymin = math.Inf(1), math.Inf(1)
	xmax, ymax = math.Inf(-1), math.Inf(-1)
	n := 0
	for _, s := range c.Series {
		if len(s.X) != len(s.Y) {
			return 0, 0, 0, 0, fmt.Errorf("plot: series %q has %d x vs %d y", s.Name, len(s.X), len(s.Y))
		}
		for i := range s.X {
			y := s.Y[i]
			if c.LogY {
				if y <= 0 {
					continue // unplottable on a log axis
				}
				y = math.Log10(y)
			}
			if s.X[i] < xmin {
				xmin = s.X[i]
			}
			if s.X[i] > xmax {
				xmax = s.X[i]
			}
			if y < ymin {
				ymin = y
			}
			if y > ymax {
				ymax = y
			}
			n++
		}
	}
	if n == 0 {
		return 0, 0, 0, 0, fmt.Errorf("plot: no plottable points")
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}
	return xmin, xmax, ymin, ymax, nil
}

// Render writes the chart as a complete SVG document.
func (c *Chart) Render(w io.Writer) error {
	if c.W == 0 {
		c.W = 640
	}
	if c.H == 0 {
		c.H = 420
	}
	xmin, xmax, ymin, ymax, err := c.bounds()
	if err != nil {
		return err
	}
	plotW := float64(c.W - marginL - marginR)
	plotH := float64(c.H - marginT - marginB)
	px := func(x float64) float64 { return float64(marginL) + (x-xmin)/(xmax-xmin)*plotW }
	py := func(y float64) float64 {
		if c.LogY {
			y = math.Log10(y)
		}
		return float64(marginT) + (1-(y-ymin)/(ymax-ymin))*plotH
	}

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="sans-serif" font-size="12">`+"\n", c.W, c.H)
	b.WriteString(`<rect width="100%" height="100%" fill="white"/>` + "\n")
	// Frame.
	fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%.0f" height="%.0f" fill="none" stroke="#333"/>`+"\n",
		marginL, marginT, plotW, plotH)
	// Title and axis labels.
	fmt.Fprintf(&b, `<text x="%d" y="22" font-size="14" font-weight="bold">%s</text>`+"\n",
		marginL, escape(c.Title))
	fmt.Fprintf(&b, `<text x="%.0f" y="%d" text-anchor="middle">%s</text>`+"\n",
		float64(marginL)+plotW/2, c.H-12, escape(c.XLabel))
	fmt.Fprintf(&b, `<text x="16" y="%.0f" text-anchor="middle" transform="rotate(-90 16 %.0f)">%s</text>`+"\n",
		float64(marginT)+plotH/2, float64(marginT)+plotH/2, escape(c.YLabel))

	// Ticks: 6 x ticks, 6 y ticks (decade ticks for log axes).
	for i := 0; i <= 5; i++ {
		x := xmin + (xmax-xmin)*float64(i)/5
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#333"/>`+"\n",
			px(x), float64(marginT)+plotH, px(x), float64(marginT)+plotH+5)
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" text-anchor="middle">%s</text>`+"\n",
			px(x), float64(marginT)+plotH+18, fmtTick(x))
	}
	for i := 0; i <= 5; i++ {
		yv := ymin + (ymax-ymin)*float64(i)/5
		ypix := float64(marginT) + (1-float64(i)/5)*plotH
		label := fmtTick(yv)
		if c.LogY {
			label = fmt.Sprintf("1e%.0f", yv)
		}
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%d" y2="%.1f" stroke="#333"/>`+"\n",
			float64(marginL)-5, ypix, marginL, ypix)
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" text-anchor="end">%s</text>`+"\n",
			float64(marginL)-8, ypix+4, label)
		// Light gridline.
		fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#ddd"/>`+"\n",
			marginL, ypix, float64(marginL)+plotW, ypix)
	}

	// Series.
	for si, s := range c.Series {
		color := palette[si%len(palette)]
		var pts []string
		for i := range s.X {
			if c.LogY && s.Y[i] <= 0 {
				continue
			}
			pts = append(pts, fmt.Sprintf("%.1f,%.1f", px(s.X[i]), py(s.Y[i])))
		}
		dash := ""
		if s.Dashed {
			dash = ` stroke-dasharray="6,3"`
		}
		fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="1.8"%s/>`+"\n",
			strings.Join(pts, " "), color, dash)
		// Legend entry.
		ly := marginT + 14 + si*16
		fmt.Fprintf(&b, `<line x1="%.0f" y1="%d" x2="%.0f" y2="%d" stroke="%s" stroke-width="2"%s/>`+"\n",
			float64(marginL)+plotW-150, ly, float64(marginL)+plotW-128, ly, color, dash)
		fmt.Fprintf(&b, `<text x="%.0f" y="%d">%s</text>`+"\n",
			float64(marginL)+plotW-122, ly+4, escape(s.Name))
	}
	b.WriteString("</svg>\n")
	_, err = io.WriteString(w, b.String())
	return err
}

// fmtTick formats an axis tick compactly.
func fmtTick(v float64) string {
	av := math.Abs(v)
	switch {
	case av >= 1000:
		return fmt.Sprintf("%.0f", v)
	case av >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// escape makes a string safe for SVG text content.
func escape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	return r.Replace(s)
}

// Bars renders a simple grouped bar chart (used for Fig. 4 panels).
type Bars struct {
	Title  string
	YLabel string
	// Labels are the category names along x.
	Labels []string
	// Groups are named value sets, one value per label.
	Groups []Series // X ignored; Y holds one value per label
	W, H   int
}

// Render writes the bar chart as SVG.
func (c *Bars) Render(w io.Writer) error {
	if c.W == 0 {
		c.W = 760
	}
	if c.H == 0 {
		c.H = 420
	}
	if len(c.Labels) == 0 || len(c.Groups) == 0 {
		return fmt.Errorf("plot: empty bar chart")
	}
	ymax := math.Inf(-1)
	for _, g := range c.Groups {
		if len(g.Y) != len(c.Labels) {
			return fmt.Errorf("plot: group %q has %d values for %d labels",
				g.Name, len(g.Y), len(c.Labels))
		}
		for _, v := range g.Y {
			if v < 0 {
				return fmt.Errorf("plot: bar charts need non-negative values")
			}
			if v > ymax {
				ymax = v
			}
		}
	}
	if ymax <= 0 {
		ymax = 1
	}
	plotW := float64(c.W - marginL - marginR)
	plotH := float64(c.H - marginT - marginB)

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="sans-serif" font-size="11">`+"\n", c.W, c.H)
	b.WriteString(`<rect width="100%" height="100%" fill="white"/>` + "\n")
	fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%.0f" height="%.0f" fill="none" stroke="#333"/>`+"\n",
		marginL, marginT, plotW, plotH)
	fmt.Fprintf(&b, `<text x="%d" y="22" font-size="14" font-weight="bold">%s</text>`+"\n",
		marginL, escape(c.Title))
	fmt.Fprintf(&b, `<text x="16" y="%.0f" text-anchor="middle" transform="rotate(-90 16 %.0f)">%s</text>`+"\n",
		float64(marginT)+plotH/2, float64(marginT)+plotH/2, escape(c.YLabel))

	slot := plotW / float64(len(c.Labels))
	barW := slot * 0.8 / float64(len(c.Groups))
	for li, label := range c.Labels {
		x0 := float64(marginL) + slot*float64(li) + slot*0.1
		for gi, g := range c.Groups {
			h := g.Y[li] / ymax * plotH
			fmt.Fprintf(&b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s"/>`+"\n",
				x0+barW*float64(gi), float64(marginT)+plotH-h, barW*0.95, h,
				palette[gi%len(palette)])
		}
		fmt.Fprintf(&b, `<text x="%.1f" y="%.0f" text-anchor="end" transform="rotate(-45 %.1f %.0f)">%s</text>`+"\n",
			x0+slot*0.4, float64(marginT)+plotH+14, x0+slot*0.4, float64(marginT)+plotH+14, escape(label))
	}
	// y ticks.
	for i := 0; i <= 5; i++ {
		v := ymax * float64(i) / 5
		ypix := float64(marginT) + (1-float64(i)/5)*plotH
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" text-anchor="end">%s</text>`+"\n",
			float64(marginL)-8, ypix+4, fmtTick(v))
		fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#ddd"/>`+"\n",
			marginL, ypix, float64(marginL)+plotW, ypix)
	}
	// Legend.
	for gi, g := range c.Groups {
		ly := marginT + 14 + gi*16
		fmt.Fprintf(&b, `<rect x="%.0f" y="%d" width="12" height="10" fill="%s"/>`+"\n",
			float64(marginL)+plotW-130, ly-8, palette[gi%len(palette)])
		fmt.Fprintf(&b, `<text x="%.0f" y="%d">%s</text>`+"\n",
			float64(marginL)+plotW-114, ly+1, escape(g.Name))
	}
	b.WriteString("</svg>\n")
	_, err := io.WriteString(w, b.String())
	return err
}
