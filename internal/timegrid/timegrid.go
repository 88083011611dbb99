// Package timegrid fixes the temporal frame of the study and derives the
// enriched calendar matrix C of Sec. II-B.
//
// The paper's data covers Nov 30 2015 (a Monday) through Apr 3 2016: 18
// weeks = 126 days = 3024 hours, with hourly KPI samples. Grid generalises
// that to any whole number of weeks starting on a Monday, and provides the
// index algebra (hour <-> day <-> week) plus the 5-column calendar matrix:
// hour of day, day of week, day of month, weekend flag, holiday flag.
package timegrid

import (
	"fmt"
	"time"

	"repro/internal/tensor"
)

// Temporal integration lengths in hours (the paper's delta^Gamma): hourly,
// daily and weekly resolutions.
const (
	HoursPerDay  = 24
	DaysPerWeek  = 7
	HoursPerWeek = HoursPerDay * DaysPerWeek // 168
)

// PaperStart is the first hour of the paper's observation window (local
// operator time is irrelevant for the reproduction; UTC keeps arithmetic
// exact).
var PaperStart = time.Date(2015, time.November, 30, 0, 0, 0, 0, time.UTC)

// PaperWeeks is the length of the paper's observation window (m^w = 18).
const PaperWeeks = 18

// Grid is a fixed hourly time axis of a whole number of weeks starting on a
// Monday.
type Grid struct {
	Start    time.Time
	Weeks    int
	holidays map[int]bool // day indices from Start's date
}

// New constructs a Grid of the given number of weeks starting at start,
// which must be midnight on a Monday. Holidays default to the common
// European holidays inside the paper's window; override with SetHolidays.
func New(start time.Time, weeks int) (*Grid, error) {
	if weeks <= 0 {
		return nil, fmt.Errorf("timegrid: weeks must be positive, got %d", weeks)
	}
	if start.Weekday() != time.Monday {
		return nil, fmt.Errorf("timegrid: start %v is not a Monday", start)
	}
	if h, m, s := start.Clock(); h != 0 || m != 0 || s != 0 {
		return nil, fmt.Errorf("timegrid: start %v is not midnight", start)
	}
	g := &Grid{Start: start, Weeks: weeks}
	g.SetHolidays(DefaultHolidays())
	return g, nil
}

// Paper returns the exact grid of the paper: 18 weeks from Nov 30 2015.
func Paper() *Grid {
	g, err := New(PaperStart, PaperWeeks)
	if err != nil {
		panic(err) // impossible: constants satisfy the invariants
	}
	return g
}

// DefaultHolidays lists the public holidays of a generic European country
// falling inside (or near) the paper's observation window.
func DefaultHolidays() []time.Time {
	return []time.Time{
		time.Date(2015, time.December, 8, 0, 0, 0, 0, time.UTC),  // Immaculate Conception
		time.Date(2015, time.December, 25, 0, 0, 0, 0, time.UTC), // Christmas
		time.Date(2015, time.December, 26, 0, 0, 0, 0, time.UTC), // St. Stephen's
		time.Date(2016, time.January, 1, 0, 0, 0, 0, time.UTC),   // New Year
		time.Date(2016, time.January, 6, 0, 0, 0, 0, time.UTC),   // Epiphany
		time.Date(2016, time.March, 25, 0, 0, 0, 0, time.UTC),    // Good Friday
		time.Date(2016, time.March, 28, 0, 0, 0, 0, time.UTC),    // Easter Monday
	}
}

// SetHolidays replaces the holiday set. Each holiday is the calendar date
// of its time in its own location; dates before or after the grid are
// kept but match no day of it.
func (g *Grid) SetHolidays(days []time.Time) {
	g.holidays = make(map[int]bool, len(days))
	for _, d := range days {
		g.holidays[daysBetween(g.Start, d)] = true
	}
}

// daysBetween is the number of calendar days from a's date to b's date,
// each read in its own location.
func daysBetween(a, b time.Time) int {
	ay, am, ad := a.Date()
	by, bm, bd := b.Date()
	return int(time.Date(by, bm, bd, 0, 0, 0, 0, time.UTC).Sub(time.Date(ay, am, ad, 0, 0, 0, 0, time.UTC)) / (24 * time.Hour))
}

// Hours returns m^h, the number of hourly samples.
func (g *Grid) Hours() int { return g.Weeks * HoursPerWeek }

// Days returns m^d, the number of daily samples.
func (g *Grid) Days() int { return g.Weeks * DaysPerWeek }

// WeeksCount returns m^w (alias of the Weeks field, for symmetry).
func (g *Grid) WeeksCount() int { return g.Weeks }

// TimeAt returns the wall-clock time of hour index j.
func (g *Grid) TimeAt(j int) time.Time { return g.Start.Add(time.Duration(j) * time.Hour) }

// DayOfHour maps an hour index to its day index.
func DayOfHour(j int) int { return j / HoursPerDay }

// WeekOfHour maps an hour index to its week index.
func WeekOfHour(j int) int { return j / HoursPerWeek }

// WeekOfDay maps a day index to its week index.
func WeekOfDay(d int) int { return d / DaysPerWeek }

// HourOfDay returns the hour-of-day (0-23) of hour index j.
func HourOfDay(j int) int { return j % HoursPerDay }

// DayOfWeek returns the day-of-week of day index d, with 0 = Monday.
func DayOfWeek(d int) int { return d % DaysPerWeek }

// IsWeekendDay reports whether day index d is a Saturday or Sunday.
func IsWeekendDay(d int) bool { dow := DayOfWeek(d); return dow >= 5 }

// IsHoliday reports whether day index d is a configured holiday. It does
// not allocate.
func (g *Grid) IsHoliday(d int) bool { return g.holidays[d] }

// IsOffDay reports whether day d is a weekend day or a holiday; the paper's
// Fig. 2 shades exactly these days.
func (g *Grid) IsOffDay(d int) bool { return IsWeekendDay(d) || g.IsHoliday(d) }

// Calendar column indices inside the matrix C (Sec. II-B order).
const (
	CalHourOfDay  = 0
	CalDayOfWeek  = 1
	CalDayOfMonth = 2
	CalIsWeekend  = 3
	CalIsHoliday  = 4
	CalCols       = 5
)

// Calendar builds the m^h x 5 matrix C: hour of day, day of week, day of
// month, weekend flag, and holiday flag, with daily signals brute-force
// upsampled to hourly values exactly as the paper describes.
func (g *Grid) Calendar() *tensor.Matrix {
	mh := g.Hours()
	c := tensor.NewMatrix(mh, CalCols)
	for j := 0; j < mh; j++ {
		d := DayOfHour(j)
		date := g.Start.AddDate(0, 0, d)
		c.Set(j, CalHourOfDay, float64(HourOfDay(j)))
		c.Set(j, CalDayOfWeek, float64(DayOfWeek(d)))
		c.Set(j, CalDayOfMonth, float64(date.Day()))
		if IsWeekendDay(d) {
			c.Set(j, CalIsWeekend, 1)
		}
		if g.IsHoliday(d) {
			c.Set(j, CalIsHoliday, 1)
		}
	}
	return c
}
