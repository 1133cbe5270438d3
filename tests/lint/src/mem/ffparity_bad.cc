// Fixture: ff-stat-parity must flag a tick-tree stat missing from the
// ff(skip) path (via stats_, a per-thread `lane.stats.x`, or behind an
// exempt write met first) and an ff(tick) root with no ff(skip) pair.
namespace fx
{

struct BurstStats
{
    unsigned long busyCycles = 0;
    unsigned long drained = 0;
};

class BurstUnit
{
  public:
    // spburst-lint: ff(tick)
    void tick()
    {
        ++stats_.busyCycles;
        finishDrain();
    }

    // spburst-lint: ff(skip)
    void skipCycles(unsigned long n)
    {
        stats_.busyCycles += n;
    }

  private:
    void finishDrain()
    {
        ++stats_.drained;
    }

    BurstStats stats_;
};

class LoneTicker
{
  public:
    // spburst-lint: ff(tick)
    void tick()
    {
        ++cycles_;
    }

  private:
    unsigned long cycles_ = 0;
};

struct LaneStats
{
    unsigned long cycles = 0;
    unsigned long retired = 0;
};

struct Lane
{
    LaneStats stats;
};

class LanedUnit
{
  public:
    // spburst-lint: ff(tick)
    void tick()
    {
        Lane &lane = lanes_[0];
        ++lane.stats.cycles;
        retire(lane);
    }

    // spburst-lint: ff(skip)
    void skipCycles(unsigned long n)
    {
        Lane &lane = lanes_[0];
        lane.stats.cycles += n;
    }

  private:
    void retire(Lane &lane)
    {
        ++lane.stats.retired;
    }

    Lane lanes_[2];
};

struct SplitStats
{
    unsigned long cycles = 0;
    unsigned long issued = 0;
};

class SplitIssuer
{
  public:
    // spburst-lint: ff(tick)
    void tick()
    {
        ++stats_.cycles;
        issueNow();
    }

    // spburst-lint: ff(skip)
    void skipCycles(unsigned long n)
    {
        stats_.cycles += n;
    }

  private:
    void issueNow()
    {
        // spburst-lint: ff-exempt -- event-count stat: a quiescent cycle issues nothing
        ++stats_.issued;
        issueLater();
    }

    void issueLater()
    {
        ++stats_.issued;
    }

    SplitStats stats_;
};

} // namespace fx
