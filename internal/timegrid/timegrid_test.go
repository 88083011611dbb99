package timegrid

import (
	"testing"
	"testing/quick"
	"time"
)

func TestPaperGridDimensions(t *testing.T) {
	g := Paper()
	if g.Hours() != 3024 {
		t.Fatalf("Hours = %d, want 3024", g.Hours())
	}
	if g.Days() != 126 {
		t.Fatalf("Days = %d, want 126", g.Days())
	}
	if g.WeeksCount() != 18 {
		t.Fatalf("Weeks = %d, want 18", g.WeeksCount())
	}
}

func TestPaperWindowEndsApril3(t *testing.T) {
	g := Paper()
	last := g.TimeAt(g.Hours() - 1)
	want := time.Date(2016, time.April, 3, 23, 0, 0, 0, time.UTC)
	if !last.Equal(want) {
		t.Fatalf("last hour = %v, want %v", last, want)
	}
}

func TestNewRejectsNonMonday(t *testing.T) {
	_, err := New(time.Date(2015, time.December, 1, 0, 0, 0, 0, time.UTC), 4)
	if err == nil {
		t.Fatal("Tuesday start should be rejected")
	}
}

func TestNewRejectsNonMidnight(t *testing.T) {
	_, err := New(time.Date(2015, time.November, 30, 5, 0, 0, 0, time.UTC), 4)
	if err == nil {
		t.Fatal("non-midnight start should be rejected")
	}
}

func TestNewRejectsNonPositiveWeeks(t *testing.T) {
	if _, err := New(PaperStart, 0); err == nil {
		t.Fatal("zero weeks should be rejected")
	}
}

func TestIndexAlgebra(t *testing.T) {
	if DayOfHour(0) != 0 || DayOfHour(23) != 0 || DayOfHour(24) != 1 {
		t.Fatal("DayOfHour wrong")
	}
	if WeekOfHour(167) != 0 || WeekOfHour(168) != 1 {
		t.Fatal("WeekOfHour wrong")
	}
	if WeekOfDay(6) != 0 || WeekOfDay(7) != 1 {
		t.Fatal("WeekOfDay wrong")
	}
	if HourOfDay(25) != 1 {
		t.Fatal("HourOfDay wrong")
	}
	if DayOfWeek(0) != 0 || DayOfWeek(5) != 5 || DayOfWeek(7) != 0 {
		t.Fatal("DayOfWeek wrong (0 must be Monday)")
	}
}

func TestWeekendDetection(t *testing.T) {
	// Day 0 is Monday Nov 30; days 5,6 are Sat/Sun.
	if IsWeekendDay(0) || IsWeekendDay(4) {
		t.Fatal("weekday flagged as weekend")
	}
	if !IsWeekendDay(5) || !IsWeekendDay(6) {
		t.Fatal("weekend not flagged")
	}
}

func TestHolidayDetection(t *testing.T) {
	g := Paper()
	// Dec 25 2015 is day index 25 (Nov 30 + 25 days).
	xmas := int(time.Date(2015, time.December, 25, 0, 0, 0, 0, time.UTC).Sub(PaperStart).Hours() / 24)
	if !g.IsHoliday(xmas) {
		t.Fatalf("day %d (Dec 25) should be a holiday", xmas)
	}
	if g.IsHoliday(0) {
		t.Fatal("Nov 30 should not be a holiday")
	}
	if !g.IsOffDay(xmas) || !g.IsOffDay(5) || g.IsOffDay(0) {
		t.Fatal("IsOffDay wrong")
	}
}

func TestSetHolidaysOverrides(t *testing.T) {
	g := Paper()
	g.SetHolidays([]time.Time{PaperStart})
	if !g.IsHoliday(0) {
		t.Fatal("custom holiday not recognised")
	}
	xmas := 25
	if g.IsHoliday(xmas) {
		t.Fatal("default holidays should have been replaced")
	}
}

func TestCalendarShapeAndContent(t *testing.T) {
	g := Paper()
	c := g.Calendar()
	if c.Rows != 3024 || c.Cols != CalCols {
		t.Fatalf("calendar shape = %dx%d", c.Rows, c.Cols)
	}
	// Hour 0: Monday Nov 30, hour 0, day-of-month 30, no weekend/holiday.
	if c.At(0, CalHourOfDay) != 0 || c.At(0, CalDayOfWeek) != 0 ||
		c.At(0, CalDayOfMonth) != 30 || c.At(0, CalIsWeekend) != 0 {
		t.Fatalf("hour 0 row = %v", c.Row(0))
	}
	// Hour 13 of day 5 (Saturday Dec 5).
	j := 5*24 + 13
	if c.At(j, CalHourOfDay) != 13 || c.At(j, CalDayOfWeek) != 5 ||
		c.At(j, CalDayOfMonth) != 5 || c.At(j, CalIsWeekend) != 1 {
		t.Fatalf("saturday row = %v", c.Row(j))
	}
	// Christmas hour.
	xmasHour := 25 * 24
	if c.At(xmasHour, CalIsHoliday) != 1 {
		t.Fatal("Christmas not flagged in calendar")
	}
}

func TestCalendarDailyColumnsConstantWithinDay(t *testing.T) {
	g := Paper()
	c := g.Calendar()
	for d := 0; d < g.Days(); d++ {
		base := d * 24
		for h := 1; h < 24; h++ {
			for _, col := range []int{CalDayOfWeek, CalDayOfMonth, CalIsWeekend, CalIsHoliday} {
				if c.At(base+h, col) != c.At(base, col) {
					t.Fatalf("day %d col %d not constant within day", d, col)
				}
			}
		}
	}
}

// Property: index algebra round-trips hour -> (day, hour-of-day) -> hour.
func TestIndexRoundTripProperty(t *testing.T) {
	f := func(raw uint16) bool {
		j := int(raw) % 3024
		return DayOfHour(j)*24+HourOfDay(j) == j &&
			WeekOfHour(j) == WeekOfDay(DayOfHour(j))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeAtProgression(t *testing.T) {
	g := Paper()
	if !g.TimeAt(0).Equal(PaperStart) {
		t.Fatal("TimeAt(0) should be the start")
	}
	if g.TimeAt(24).Day() != 1 {
		t.Fatalf("hour 24 should be Dec 1, got %v", g.TimeAt(24))
	}
}

// TestIsHolidayMatchesCalendarDates: a day is a holiday exactly when its
// calendar date equals a holiday's date read in the holiday's own
// location, for holidays in and around the grid.
func TestIsHolidayMatchesCalendarDates(t *testing.T) {
	g := Paper()
	east := time.FixedZone("UTC+9", 9*3600)
	days := []time.Time{
		PaperStart.AddDate(0, 0, -3),                              // before the grid
		time.Date(2015, time.December, 8, 23, 30, 0, 0, time.UTC), // late in the day
		time.Date(2015, time.December, 31, 2, 0, 0, 0, east),      // Dec 30 in UTC
		PaperStart.AddDate(0, 0, g.Days()+1),                      // after the grid
		time.Date(2016, time.February, 29, 0, 0, 0, 0, time.UTC),  // leap day
	}
	g.SetHolidays(days)
	for d := -5; d < g.Days()+5; d++ {
		date := g.Start.AddDate(0, 0, d).Format("2006-01-02")
		want := false
		for _, h := range days {
			want = want || h.Format("2006-01-02") == date
		}
		if got := g.IsHoliday(d); got != want {
			t.Fatalf("day %d (%s): holiday %v, want %v", d, date, got, want)
		}
	}
}

// TestIsHolidayAllocatesNothing: dataset generation asks once per
// sector-hour, so the lookup must not build a date per call.
func TestIsHolidayAllocatesNothing(t *testing.T) {
	g := Paper()
	if n := testing.AllocsPerRun(100, func() {
		g.IsHoliday(25)
		g.IsHoliday(3)
	}); n != 0 {
		t.Fatalf("IsHoliday allocates %v times per call pair", n)
	}
}
